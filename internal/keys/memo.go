package keys

import (
	"crypto/ed25519"

	"repro/internal/hashx"
)

// SigMemo records one successful signature check for the signed struct
// that embeds it, so a pointer delivered to every simulated node costs
// one ed25519 verification. It is keyed by the signed digest, which
// callers re-derive on every check, and valid only while self points at
// this very field: changed content and value copies re-verify. Failures
// are never recorded, so a Sig swapped after a rejection is never
// laundered. Hit only reads and is safe from concurrent workers; Record
// must not race with other calls on the same memo.
type SigMemo struct {
	self   *SigMemo
	digest hashx.Hash
}

// Hit reports whether a check over digest already succeeded.
func (m *SigMemo) Hit(digest hashx.Hash) bool { return m.self == m && m.digest == digest }

// Record notes that the owner's signatures over digest verified.
func (m *SigMemo) Record(digest hashx.Hash) { m.self, m.digest = m, digest }

// Verify reports whether pub belongs to owner and sig signs digest,
// answering from the memo when it can. The owner must be part of the
// signed content, so a hit covers the key binding too.
func (m *SigMemo) Verify(owner Address, pub ed25519.PublicKey, digest hashx.Hash, sig []byte) bool {
	if m.Hit(digest) {
		return true
	}
	if AddressOf(pub) != owner || !Verify(pub, digest[:], sig) {
		return false
	}
	m.Record(digest)
	return true
}
