// Package chainsim reproduces the paper's RQ3 environment: a micro testnet
// of validators where blocks are mined at a tunable interval (the paper
// uses ~12 s to match mainnet, then ~1 s to expose the execution
// bottleneck), propagate with latency, and must be fully executed by a
// validator before it can build on them. Block execution latencies come
// from really executing the blocks and converting the scheduler's
// virtual-time makespan to seconds with a calibration factor chosen so a
// serial 10,000-transaction block costs about what the paper reports
// (30-40 s of execution per block cycle).
package chainsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

// Config parameterizes one simulated deployment.
type Config struct {
	// Validators in the network (the paper uses 20).
	Validators int
	// MeanBlockInterval is the average mining interval.
	MeanBlockInterval time.Duration
	// PropagationDelay is the mean block propagation latency.
	PropagationDelay time.Duration
	// Blocks to simulate.
	Blocks int
	// Workload configures the traffic (TxPerBlock is the block size).
	Workload workload.Config
	// SerialSecondsPer10k calibrates gas->seconds: the wall time a serial
	// validator needs for a 10,000-transaction block. The paper's setup
	// implies roughly 35 s.
	SerialSecondsPer10k float64
	// Seed drives mining-interval and validator-jitter randomness.
	Seed int64
	// Log, when non-nil and enabled, records the scheduler events of the
	// really-executed blocks (DMVCC only) — the source of the run's traces
	// and conflict post-mortems.
	Log *eventlog.Log
	// Metrics, when non-nil, accumulates the execution engine's metrics.
	Metrics *telemetry.Registry
	// Ledger, when non-nil and enabled, records per-stage occupancy
	// intervals of the really-executed blocks (feeding a live
	// /telemetry/timeline endpoint).
	Ledger *telemetry.StageLedger
}

// DefaultConfig mirrors the paper's RQ3 setup with execution as the
// bottleneck (the adjusted-difficulty variant).
func DefaultConfig() Config {
	return Config{
		Validators:          20,
		MeanBlockInterval:   time.Second,
		PropagationDelay:    150 * time.Millisecond,
		Blocks:              4,
		Workload:            workload.DefaultConfig(),
		SerialSecondsPer10k: 35,
		Seed:                7,
	}
}

// Result summarizes one simulated run.
type Result struct {
	TotalTxs      int
	SimulatedTime time.Duration
	// Throughput in transactions per second of simulated time.
	Throughput float64
	// AvgExecTime is the mean per-block execution latency.
	AvgExecTime time.Duration
	// AvgMiningWait is the mean mining interval drawn.
	AvgMiningWait time.Duration
	// ExecBound reports how many block cycles were execution-bound.
	ExecBound int
}

// blockArtifacts caches one really-executed block's scheduling artifacts.
type blockArtifacts struct {
	out        *chain.ExecOut
	serialSpan uint64
	txs        int
	number     uint64
}

// Session holds the executed blocks of one mode so timelines for many
// thread counts can be simulated without re-executing.
type Session struct {
	cfg  Config
	mode chain.Mode
	arts []blockArtifacts
}

// NewSession really executes cfg.Blocks blocks under mode (committing as it
// goes) and caches the scheduling artifacts.
func NewSession(cfg Config, mode chain.Mode) (*Session, error) {
	if cfg.Validators < 1 {
		return nil, fmt.Errorf("chainsim: need at least 1 validator, got %d", cfg.Validators)
	}
	world, err := workload.BuildWorld(cfg.Workload)
	if err != nil {
		return nil, err
	}
	eng := chain.NewEngine(world.DB, world.Registry, 8,
		chain.WithLog(cfg.Log), chain.WithMetrics(cfg.Metrics), chain.WithLedger(cfg.Ledger))
	s := &Session{cfg: cfg, mode: mode}
	for b := 0; b < cfg.Blocks; b++ {
		blockCtx := world.BlockContext()
		txs := world.NextBlock()
		out, err := eng.Execute(mode, blockCtx, txs)
		if err != nil {
			return nil, fmt.Errorf("chainsim: block %d: %w", b, err)
		}
		if _, err := eng.Commit(out.WriteSet); err != nil {
			return nil, err
		}
		serialSpan := uint64(0)
		for _, c := range out.GasCosts {
			serialSpan += c
		}
		s.arts = append(s.arts, blockArtifacts{out: out, serialSpan: serialSpan, txs: len(txs), number: blockCtx.Number})
	}
	return s, nil
}

// PostMortems returns the conflict post-mortems of the session's really
// executed blocks, in execution order. Empty unless the session ran with an
// enabled event log under a conflict-aware scheduler; blocks the log has
// already evicted are skipped.
func (s *Session) PostMortems() []*telemetry.PostMortem {
	var pms []*telemetry.PostMortem
	for _, art := range s.arts {
		if pm := telemetry.BlockPostMortem(s.cfg.Log.Block(int64(art.number))); pm != nil {
			pms = append(pms, pm)
		}
	}
	return pms
}

// Simulate runs the validator-network timeline for a thread count.
func (s *Session) Simulate(threads int) (*Result, error) {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	speed := make([]float64, cfg.Validators)
	for i := range speed {
		speed[i] = 0.9 + 0.2*rng.Float64()
	}

	res := &Result{}
	var clock time.Duration
	var sumExec, sumWait time.Duration

	for _, art := range s.arts {
		res.TotalTxs += art.txs
		span, err := art.out.Makespan(s.mode, threads)
		if err != nil {
			return nil, err
		}
		// Calibration: serial seconds per virtual-gas unit, scaled from
		// the configured 10k-block cost.
		secPerGas := cfg.SerialSecondsPer10k / (float64(art.serialSpan) * 10_000 / float64(art.txs))
		miner := rng.Intn(cfg.Validators)
		execTime := time.Duration(float64(span) * secPerGas * speed[miner] * float64(time.Second))

		wait := time.Duration(rng.ExpFloat64() * float64(cfg.MeanBlockInterval))
		sumWait += wait
		sumExec += execTime

		// The next block cannot be built until the miner executed this one
		// and it propagated; mining proceeds concurrently with execution.
		cycle := wait
		if execTime+cfg.PropagationDelay > cycle {
			cycle = execTime + cfg.PropagationDelay
			res.ExecBound++
		}
		clock += cycle
	}

	res.SimulatedTime = clock
	res.Throughput = float64(res.TotalTxs) / clock.Seconds()
	res.AvgExecTime = sumExec / time.Duration(len(s.arts))
	res.AvgMiningWait = sumWait / time.Duration(len(s.arts))
	if math.IsInf(res.Throughput, 0) || math.IsNaN(res.Throughput) {
		return nil, fmt.Errorf("chainsim: degenerate simulated time %v", clock)
	}
	return res, nil
}

// ThroughputSpeedup runs the simulation for every registered scheduler and
// thread count and reports throughput relative to serial execution —
// Fig. 8's y-axis.
func ThroughputSpeedup(cfg Config, threads []int) (map[chain.Mode][]float64, error) {
	serialSess, err := NewSession(cfg, chain.ModeSerial)
	if err != nil {
		return nil, err
	}
	serial, err := serialSess.Simulate(1)
	if err != nil {
		return nil, err
	}
	out := map[chain.Mode][]float64{chain.ModeSerial: make([]float64, len(threads))}
	for i := range threads {
		out[chain.ModeSerial][i] = 1
	}
	for _, m := range chain.Modes() {
		if m == chain.ModeSerial {
			continue // the baseline above
		}
		sess, err := NewSession(cfg, m)
		if err != nil {
			return nil, err
		}
		series := make([]float64, len(threads))
		for i, th := range threads {
			r, err := sess.Simulate(th)
			if err != nil {
				return nil, err
			}
			series[i] = r.Throughput / serial.Throughput
		}
		out[m] = series
	}
	return out, nil
}
