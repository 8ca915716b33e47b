package keys_test

import (
	"testing"

	"repro/internal/account"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/orv"
	"repro/internal/tangle"
	"repro/internal/utxo"
)

// signedSubject adapts one signed ledger type to the keys.SigMemo
// contract checks.
type signedSubject struct {
	// verify checks the original pointer.
	verify func() bool
	// copyVerify checks a value copy of the original, with one Sig byte
	// flipped when tamper is set.
	copyVerify func(tamper bool) bool
	// mutate changes signed content on the original pointer. It is nil
	// for lattice and tangle, whose digest is the content hash memoized
	// on first use: their contract freezes content after that.
	mutate func()
}

func flipped(sig []byte) []byte {
	out := append([]byte(nil), sig...)
	out[0] ^= 0xff
	return out
}

func accountSubject(t *testing.T) signedSubject {
	kp := keys.Deterministic("memo-table/account")
	to := keys.Deterministic("memo-table/to").Address()
	tx := &account.Tx{Nonce: 0, To: &to, Value: 5, GasLimit: account.GasTxBase, GasPrice: 1}
	tx.Sign(kp)
	return signedSubject{
		verify: tx.VerifySig,
		copyVerify: func(tamper bool) bool {
			cp := *tx
			if tamper {
				cp.Sig = flipped(cp.Sig)
			}
			return cp.VerifySig()
		},
		mutate: func() { tx.Value++ },
	}
}

func latticeSubject(t *testing.T) signedSubject {
	kp := keys.Deterministic("memo-table/lattice")
	l, _, err := lattice.New(kp, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.NewSend(kp, keys.Deterministic("memo-table/to").Address(), 10)
	if err != nil {
		t.Fatal(err)
	}
	return signedSubject{
		verify: b.VerifySig,
		copyVerify: func(tamper bool) bool {
			cp := *b
			if tamper {
				cp.Sig = flipped(cp.Sig)
			}
			return cp.VerifySig()
		},
	}
}

func tangleSubject(t *testing.T) signedSubject {
	kp := keys.Deterministic("memo-table/tangle")
	parent := hashx.Sum([]byte("parent"))
	v := tangle.NewVertex(kp, 1, parent, parent, keys.Deterministic("memo-table/to").Address(), 10)
	return signedSubject{
		verify: v.VerifySig,
		copyVerify: func(tamper bool) bool {
			cp := *v
			if tamper {
				cp.Sig = flipped(cp.Sig)
			}
			return cp.VerifySig()
		},
	}
}

func utxoSubject(t *testing.T) signedSubject {
	kp := keys.Deterministic("memo-table/utxo")
	set := utxo.NewSet()
	fund := utxo.NewCoinbase(1, kp.Address(), 100)
	if _, err := set.ApplyBlock(&utxo.BlockBody{Txs: []*utxo.Tx{fund}}, 100); err != nil {
		t.Fatal(err)
	}
	tx := &utxo.Tx{
		Ins:  []utxo.TxIn{{Prev: utxo.Outpoint{TxID: fund.ID(), Index: 0}}},
		Outs: []utxo.TxOut{{Value: 60, Owner: keys.Deterministic("memo-table/to").Address()}},
	}
	tx.SignAll(kp)
	check := func(tx *utxo.Tx) bool {
		_, err := set.CheckTx(tx)
		return err == nil
	}
	return signedSubject{
		verify: func() bool { return check(tx) },
		copyVerify: func(tamper bool) bool {
			cp := *tx
			cp.Ins = append([]utxo.TxIn(nil), tx.Ins...)
			if tamper {
				cp.Ins[0].Sig = flipped(cp.Ins[0].Sig)
			}
			return check(&cp)
		},
		mutate: func() { tx.Outs[0].Value-- },
	}
}

func orvSubject(t *testing.T) signedSubject {
	v := orv.NewVote(keys.Deterministic("memo-table/orv"), hashx.Sum([]byte("block")), 1)
	return signedSubject{
		verify: v.Verify,
		copyVerify: func(tamper bool) bool {
			cp := *v
			if tamper {
				cp.Sig = flipped(cp.Sig)
			}
			return cp.Verify()
		},
		mutate: func() { v.Seq++ },
	}
}

// Every signed type rides the same keys.SigMemo seam, so every type must
// keep its contract: a verified pointer hits, a value copy re-verifies
// (a Sig swapped on the copy fails even though the original verified),
// failure is never cached, and a content change re-checks.
func TestSignedTypesShareMemoContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(*testing.T) signedSubject
	}{
		{"account.Tx", accountSubject},
		{"lattice.Block", latticeSubject},
		{"tangle.Vertex", tangleSubject},
		{"utxo.Tx", utxoSubject},
		{"orv.Vote", orvSubject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make(t)
			if !s.verify() || !s.verify() {
				t.Fatal("valid signature rejected (cold or memoized)")
			}
			for i := 0; i < 2; i++ {
				if s.copyVerify(true) {
					t.Fatal("tampered value copy verified through the original's memo")
				}
			}
			if !s.copyVerify(false) {
				t.Fatal("honest value copy rejected")
			}
			if !s.verify() {
				t.Fatal("original lost its verdict")
			}
			if s.mutate != nil {
				s.mutate()
				if s.verify() {
					t.Fatal("content mutated after a successful check still verified")
				}
			}
		})
	}
}
