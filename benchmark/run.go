package main

import (
	"fmt"
	"runtime"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/types"
)

// oracle counts blocks attempted and blocks that failed: errored, or
// committed a DMVCC root that differs from the serial twin's. A parallel
// schedule only counts if replay reaches the serial state, so every measured
// block is checked.
type oracle struct {
	attempted, failed int
}

func (o *oracle) check(dmvcc, serial types.Hash) {
	o.attempted++
	if dmvcc != serial {
		o.failed++
	}
}

// fail counts n blocks that could not be executed at all.
func (o *oracle) fail(n int) {
	o.attempted += n
	o.failed += n
}

// runner drives one workload's pair of worlds through the measured phases:
// a closed loop with one feeder, the DMVCC and serial legs alternating and
// never overlapping.
type runner struct {
	sp      spec
	sz      sizes
	threads int
	p       *pair
	dmvcc   *chain.Engine
	serial  *chain.Engine
	next    int // index of the first block not yet executed
	oracle  oracle

	// Throughput phase: txs/s per measured chunk and the DMVCC leg's summed
	// pipeline stats.
	dmvccTput, serialTput []float64
	pipe                  chain.PipelineStats
	// Latency phase: ms per measured block.
	dmvccLat, serialLat []float64

	txsCommitted int
}

func newRunner(sp spec, sz sizes, threads int, p *pair) *runner {
	return &runner{
		sp: sp, sz: sz, threads: threads, p: p,
		dmvcc:  chain.NewEngine(p.dmvcc.DB, p.dmvcc.Registry, threads),
		serial: chain.NewEngine(p.serial.DB, p.serial.Registry, threads),
	}
}

// take returns the next n pre-generated blocks.
func (r *runner) take(n int) []chain.BlockInput {
	b := r.p.blocks[r.next : r.next+n]
	r.next += n
	return b
}

func countTxs(blocks []chain.BlockInput) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Txs)
	}
	return n
}

// throughput runs chunks of blocks through ExecutePipelined on both worlds,
// legs ordered D,S,S,D,… so neither always runs on the heap the other left.
// The first chunk of each leg is warm-up. The collector runs between chunks,
// outside the timed region, so one leg's garbage is not charged to the other.
func (r *runner) throughput() error {
	type leg struct {
		eng  *chain.Engine
		mode chain.Mode
		tput *[]float64
	}
	d := leg{r.dmvcc, chain.ModeDMVCC, &r.dmvccTput}
	s := leg{r.serial, chain.ModeSerial, &r.serialTput}
	for k := 0; k <= r.sz.chunks; k++ {
		blocks := r.take(r.sz.chunk)
		txs := countTxs(blocks)
		order := [2]leg{d, s}
		if k%2 == 1 {
			order = [2]leg{s, d}
		}
		roots := make(map[chain.Mode][]types.Hash, 2)
		for _, l := range order {
			runtime.GC()
			start := time.Now()
			out, err := l.eng.ExecutePipelined(l.mode, blocks)
			wall := time.Since(start)
			if err != nil {
				r.oracle.fail(len(blocks))
				return fmt.Errorf("throughput chunk %d (%s): %w", k, l.mode, err)
			}
			roots[l.mode] = out.Roots
			if k == 0 {
				continue
			}
			*l.tput = append(*l.tput, float64(txs)/wall.Seconds())
			if l.mode == chain.ModeDMVCC {
				addPipeline(&r.pipe, out.Stats)
			}
		}
		for i := range blocks {
			r.oracle.check(roots[chain.ModeDMVCC][i], roots[chain.ModeSerial][i])
		}
		r.txsCommitted += txs
	}
	return nil
}

func addPipeline(sum *chain.PipelineStats, s chain.PipelineStats) {
	sum.Blocks += s.Blocks
	sum.AnalysisWall += s.AnalysisWall
	sum.ExecWall += s.ExecWall
	sum.Overlap += s.Overlap
	sum.Stall += s.Stall
	sum.CommitWait += s.CommitWait
	sum.Stalls += s.Stalls
}

// latency imports blocks one at a time through ExecuteAndCommit, DMVCC then
// serial, each timed from the call to the returned durable root.
func (r *runner) latency() error {
	for i := 0; i < r.sz.latWarm+r.sz.latBlocks; i++ {
		b := r.take(1)[0]
		start := time.Now()
		_, dRoot, err := r.dmvcc.ExecuteAndCommit(chain.ModeDMVCC, b.Block, b.Txs)
		dWall := time.Since(start)
		if err != nil {
			r.oracle.fail(1)
			return fmt.Errorf("latency block %d (dmvcc): %w", b.Block.Number, err)
		}
		start = time.Now()
		_, sRoot, err := r.serial.ExecuteAndCommit(chain.ModeSerial, b.Block, b.Txs)
		sWall := time.Since(start)
		if err != nil {
			r.oracle.fail(1)
			return fmt.Errorf("latency block %d (serial): %w", b.Block.Number, err)
		}
		r.oracle.check(dRoot, sRoot)
		r.txsCommitted += len(b.Txs)
		if i >= r.sz.latWarm {
			r.dmvccLat = append(r.dmvccLat, ms(dWall))
			r.serialLat = append(r.serialLat, ms(sWall))
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd computes the user-visible metrics of an untraced run. setups are
// the timed set-up durations in seconds.
func (r *runner) endToEnd(setups []float64) map[string]float64 {
	d, s := median(r.dmvccTput), median(r.serialTput)
	return map[string]float64{
		"setup_s":                     median(setups),
		"txs_per_s":                   d,
		"serial_txs_per_s":            s,
		"speedup_vs_serial":           ratio(d, s),
		"block_latency_p50_ms":        median(r.dmvccLat),
		"serial_block_latency_p50_ms": median(r.serialLat),
		"peak_rss_mb":                 peakRSSMB(),
	}
}
