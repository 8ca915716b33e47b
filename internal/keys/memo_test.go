package keys

import (
	"testing"

	"repro/internal/hashx"
)

// signedThing stands in for a signed struct that embeds the memo.
type signedThing struct {
	owner    Address
	pub      []byte
	sig      []byte
	verified SigMemo
}

func newSignedThing(kp *KeyPair, msg string) (*signedThing, hashx.Hash) {
	digest := hashx.Sum([]byte(msg))
	return &signedThing{owner: kp.Address(), pub: kp.Pub, sig: kp.Sign(digest[:])}, digest
}

func (s *signedThing) check(digest hashx.Hash) bool {
	return s.verified.Verify(s.owner, s.pub, digest, s.sig)
}

func TestSigMemoZeroValueMisses(t *testing.T) {
	var m SigMemo
	if m.Hit(hashx.Zero) {
		t.Fatal("zero memo must not hit, not even for the zero digest")
	}
}

func TestSigMemoRecordsSuccess(t *testing.T) {
	s, digest := newSignedThing(Deterministic("memo-ok"), "pay 5")
	if s.verified.Hit(digest) {
		t.Fatal("hit before any check")
	}
	if !s.check(digest) {
		t.Fatal("valid signature rejected")
	}
	if !s.verified.Hit(digest) {
		t.Fatal("success was not recorded")
	}
	if !s.check(digest) {
		t.Fatal("memo hit rejected")
	}
}

// The caller re-derives the digest on every check, so changed content
// misses the memo and re-verifies (and fails under the old signature).
func TestSigMemoContentChangeRechecks(t *testing.T) {
	s, digest := newSignedThing(Deterministic("memo-mut"), "pay 5")
	if !s.check(digest) {
		t.Fatal("valid signature rejected")
	}
	mutated := hashx.Sum([]byte("pay 500"))
	if s.verified.Hit(mutated) {
		t.Fatal("memo hit for a different digest")
	}
	if s.check(mutated) {
		t.Fatal("mutated content verified under the old signature")
	}
}

// A value copy carries a memo whose self-pointer names the original, so
// the copy re-verifies: swapping its Sig after the original verified
// must not ride the original's verdict.
func TestSigMemoValueCopyRechecks(t *testing.T) {
	s, digest := newSignedThing(Deterministic("memo-copy"), "pay 5")
	if !s.check(digest) {
		t.Fatal("valid signature rejected")
	}
	cp := *s
	if cp.verified.Hit(digest) {
		t.Fatal("value copy inherited the memo")
	}
	cp.sig = append([]byte(nil), s.sig...)
	cp.sig[0] ^= 0xff
	if cp.check(digest) {
		t.Fatal("tampered copy verified through the original's memo")
	}
	if !s.verified.Hit(digest) || !s.check(digest) {
		t.Fatal("original lost its memo")
	}
}

// Failure is never cached, and a failing check never turns into a hit.
func TestSigMemoFailureNotCached(t *testing.T) {
	s, digest := newSignedThing(Deterministic("memo-fail"), "pay 5")
	good := s.sig
	s.sig = append([]byte(nil), good...)
	s.sig[3] ^= 0x01
	for i := 0; i < 2; i++ {
		if s.check(digest) {
			t.Fatal("tampered signature verified")
		}
		if s.verified.Hit(digest) {
			t.Fatal("failure recorded as a hit")
		}
	}
	s.sig = good
	if !s.check(digest) {
		t.Fatal("restored signature rejected: failure was cached")
	}
}

// The key binding is part of the memoized predicate: a key that does not
// hash to the owner fails even with a valid signature.
func TestSigMemoOwnerBinding(t *testing.T) {
	s, digest := newSignedThing(Deterministic("memo-owner"), "pay 5")
	s.owner = Deterministic("someone-else").Address()
	if s.check(digest) || s.verified.Hit(digest) {
		t.Fatal("signature accepted for the wrong owner")
	}
}
