package account

// FuzzAccountApplyTx: ApplyTx and Mempool.Add take transactions from the
// network, and the signature check they share is memoized per pointer.
// The fuzzer tampers with the nonce, value, data, Sig and PubKey of fresh
// value copies of a signed transfer, both before and after the original
// pointer was admitted and applied (so its verdict is memoized). A
// tampered copy must never apply or be admitted, a rejected transaction
// must leave the state untouched, and balances plus fees paid must be
// conserved.

import (
	"testing"

	"repro/internal/keys"
)

// Which fields a fuzz case tampers with.
const (
	tamperNonce uint8 = 1 << iota
	tamperValue
	tamperData
	tamperSig
	tamperPubKey
	tamperAll = tamperNonce | tamperValue | tamperData | tamperSig | tamperPubKey
)

func FuzzAccountApplyTx(f *testing.F) {
	f.Add(tamperNonce, uint64(1), uint64(0), []byte(nil), uint8(0), uint8(0), false)
	f.Add(tamperValue, uint64(0), uint64(7), []byte(nil), uint8(0), uint8(0), true)
	f.Add(tamperData, uint64(0), uint64(0), []byte{0x60}, uint8(0), uint8(0), true)
	f.Add(tamperSig, uint64(0), uint64(0), []byte(nil), uint8(63), uint8(0x80), true)
	f.Add(tamperPubKey, uint64(0), uint64(0), []byte(nil), uint8(0), uint8(0), false)
	f.Add(tamperAll, uint64(3), uint64(9), []byte{1, 2}, uint8(5), uint8(1), true)

	r := keys.NewRing("fuzz-apply", 3)
	from, to, coinbase := r.Pair(0), r.Addr(1), r.Addr(2)
	const funded = 1_000_000

	f.Fuzz(func(t *testing.T, fields uint8, nonce, value uint64, data []byte, sigAt, sigMask uint8, after bool) {
		if fields&tamperAll == 0 {
			fields |= tamperSig
		}
		genesis := NewState()
		genesis.AddBalance(from.Address(), funded)
		tx := payTx(from, 0, to, 10, 1)

		// Every enabled mutation changes its field, so the copy always
		// differs from the signed original.
		tampered := func() *Tx {
			cp := *tx
			if fields&tamperNonce != 0 {
				cp.Nonce ^= nonce | 1
			}
			if fields&tamperValue != 0 {
				cp.Value ^= value | 1
			}
			if fields&tamperData != 0 {
				cp.Data = append(append([]byte(nil), data...), 0)
			}
			if fields&tamperSig != 0 {
				cp.Sig = append([]byte(nil), tx.Sig...)
				cp.Sig[int(sigAt)%len(cp.Sig)] ^= sigMask | 1
			}
			if fields&tamperPubKey != 0 {
				cp.PubKey = r.Pair(1).Pub
			}
			return &cp
		}
		refuse := func(cp *Tx) {
			t.Helper()
			st := genesis.Copy()
			if err := NewMempool().Add(cp, st); err == nil {
				t.Fatalf("tampered tx admitted (fields %05b)", fields)
			}
			if _, err := ApplyTx(st, cp, coinbase); err == nil {
				t.Fatalf("tampered tx applied (fields %05b)", fields)
			}
			if st.Root() != genesis.Root() {
				t.Fatal("rejected tx changed the state")
			}
		}
		conserved := func(st *State, rc *Receipt) {
			t.Helper()
			if got := st.Balance(from.Address()) + st.Balance(to) + st.Balance(coinbase); got != funded {
				t.Fatalf("balances sum to %d, want %d", got, funded)
			}
			if fees := st.Balance(coinbase); fees != rc.GasUsed*tx.GasPrice {
				t.Fatalf("coinbase holds %d, fees paid %d", fees, rc.GasUsed*tx.GasPrice)
			}
		}

		if !after {
			refuse(tampered())
		}
		st := genesis.Copy()
		if err := NewMempool().Add(tx, st); err != nil {
			t.Fatalf("honest tx not admitted: %v", err)
		}
		rc, err := ApplyTx(st, tx, coinbase)
		if err != nil {
			t.Fatalf("honest tx not applied: %v", err)
		}
		conserved(st, rc)
		if after {
			refuse(tampered())
		}
		// An honest copy re-verifies on its own and applies the same.
		cp := *tx
		st = genesis.Copy()
		if rc, err = ApplyTx(st, &cp, coinbase); err != nil {
			t.Fatalf("honest copy not applied: %v", err)
		}
		conserved(st, rc)
	})
}
