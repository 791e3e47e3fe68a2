package core_test

import (
	"testing"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
)

// benchTxs builds the contended ICO/NFT mix used by the exactness tests, at
// a size where scheduler overhead is measurable.
func benchTxs() []*types.Transaction {
	var txs []*types.Transaction
	for i := 0; i < 48; i++ {
		txs = append(txs, call(user(i%60), icoAddr, 1000+uint64(i), "buy"))
		txs = append(txs, call(user(i%60), nftAddr, 0, "mintNFT"))
	}
	return txs
}

// benchExecuteEvents runs block executions with the given event log attached
// (nil = none). Every iteration re-executes the same block number, so an
// enabled log replaces that block's record instead of growing.
func benchExecuteEvents(b *testing.B, events *eventlog.Log) {
	b.Helper()
	txs := benchTxs()
	db, reg := fixture(b)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExecutor(reg, 8)
	ex.SetLog(events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExecuteBlock(db, blk, txs, csags); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventsNone is the baseline: no log attached, every emission site
// pays a nil check.
func BenchmarkEventsNone(b *testing.B) {
	benchExecuteEvents(b, nil)
}

// BenchmarkEventsDisabled attaches a log but leaves it disabled: every
// emission site pays the atomic-flag load and nothing else. The contract
// (package doc of internal/eventlog, gated in CI) is that this stays within
// 2% of BenchmarkEventsNone.
func BenchmarkEventsDisabled(b *testing.B) {
	benchExecuteEvents(b, eventlog.New())
}

// BenchmarkEventsEnabled bounds the cost of full schedule capture plus the
// end-of-block audit, for comparison (not part of the <2% contract).
func BenchmarkEventsEnabled(b *testing.B) {
	events := eventlog.New()
	events.Enable()
	benchExecuteEvents(b, events)
}
