package bench

import (
	"fmt"

	"dmvcc/internal/chain"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

// TraceHotpath executes one DMVCC block per hotpath workload with the event
// log and stage ledger attached — block number i+1 carries workload i's
// events — and returns the critical path of each traced block. The log and
// ledger must already be enabled by the caller; the registry may be nil.
func TraceHotpath(cfg HotpathConfig, threads int, events *eventlog.Log, ledger *telemetry.StageLedger, reg *telemetry.Registry) ([]*telemetry.CriticalPath, error) {
	if cfg.Txs <= 0 {
		cfg.Txs = 1024
	}
	var paths []*telemetry.CriticalPath
	for i, w := range hotpathWorkloads(cfg) {
		world, err := workload.BuildWorld(w.wl)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", w.name, err)
		}
		eng := chain.NewEngine(world.DB, world.Registry, threads,
			chain.WithLog(events), chain.WithLedger(ledger), chain.WithMetrics(reg))
		blockCtx := world.BlockContext()
		blockCtx.Number = uint64(i + 1) // one trace process group per workload
		txs := world.NextBlock()
		out, err := eng.Execute(chain.ModeDMVCC, blockCtx, txs)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", w.name, err)
		}
		if _, err := eng.Commit(out.WriteSet); err != nil {
			return nil, fmt.Errorf("trace %s commit: %w", w.name, err)
		}
		paths = append(paths, telemetry.BlockCriticalPath(events.Block(int64(i+1))))
	}
	return paths, nil
}
