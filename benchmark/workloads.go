package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/state"
	"dmvcc/internal/workload"
)

// refSeconds is the -seconds value the reference block counts below are
// sized for (BENCHMARK.json's run_seconds). Other values scale the counts
// proportionally, so the same -seconds always measures the same blocks.
const refSeconds = 20

// sizes fixes how much work one run measures. Counts are fixed per run, not
// time-driven: the in-memory node stores grow with height, so per-block cost
// drifts, and only runs that measure the same heights are comparable.
type sizes struct {
	// setupReps is how many times the timed set-up runs (median reported).
	setupReps int
	// chunk is the blocks per ExecutePipelined call; each leg runs one
	// discarded warm-up chunk and then chunks measured ones.
	chunk  int
	chunks int
	// latWarm blocks are discarded before latBlocks measured ones.
	latWarm   int
	latBlocks int
	// stagedBlocks go through the traced staged loop; probeReads is the
	// size of the state read probe after it.
	stagedBlocks int
	probeReads   int
}

// refSizes are the sizes of an untraced run at refSeconds: everything but the
// number of measured chunks and latency blocks is the same for all workloads.
func refSizes(chunks, latBlocks int) sizes {
	return sizes{setupReps: 3, chunk: 10, chunks: chunks, latWarm: 5, latBlocks: latBlocks, stagedBlocks: 24, probeReads: 10000}
}

// blocksNeeded is how many pre-generated blocks a run consumes.
func (s sizes) blocksNeeded(traced bool) int {
	n := (1+s.chunks)*s.chunk + s.latWarm + s.latBlocks
	if traced {
		n += s.stagedBlocks
	}
	return n
}

// scaled returns s with every sample count multiplied by f, floored at the
// smallest counts that still give a median over several samples.
func (s sizes) scaled(f float64) sizes {
	mul := func(n, floor int) int {
		if v := int(math.Round(float64(n) * f)); v > floor {
			return v
		}
		return floor
	}
	s.chunks = mul(s.chunks, 2)
	s.latBlocks = mul(s.latBlocks, 10)
	s.stagedBlocks = mul(s.stagedBlocks, 4)
	s.probeReads = mul(s.probeReads, 1000)
	return s
}

// tracedPhases resizes the two untraced phases to what the traced run needs
// from them: PipelineOut.Stats for the chain layer from a short throughput
// phase, and from the latency phase enough samples to leave ten beyond the
// p90 it reports (the untraced run reports only the median, so it can spend
// its time on throughput chunks instead).
func (s sizes) tracedPhases() sizes {
	s.setupReps = 1
	s.chunks = 2
	s.latBlocks = 105
	return s
}

// spec is one benchmark workload.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// disk selects the disk-backed flat backend (fsync per block) over the
	// in-memory one (async commit, nothing durable).
	disk bool
	cfg  func() workload.Config
	ref  sizes
}

func (sp spec) backend() string {
	if sp.disk {
		return "flat-disk"
	}
	return "flat-mem"
}

func (sp spec) fsyncPolicy() string {
	if sp.disk {
		return "per-block"
	}
	return "none"
}

// raceFree drops the router contracts from c. Router posts and reroutes use
// storage keys that depend on a value another transaction of the same block
// may write; they are the one traffic family whose C-SAG mispredictions make
// DMVCC abort, and at the seed commit an abort on more than one core commits
// a root different from serial's about once in 700 (the open multicore race,
// ROADMAP open item 1). The benchmark contract admits no failing operation,
// so until that race is fixed no workload aborts. The traffic share the
// routers had (half of the ICO remainder) goes to ICO buys.
func raceFree(c workload.Config) workload.Config {
	c.Routers = 0
	return c
}

// specs lists the four workloads. Names are fixed; later issues cite them.
var specs = []spec{
	{
		name: "mainnet-mix",
		why:  "paper RQ2 mix, in-memory: rare conflicts, commit off the critical path, so core dispatch, evm and sag do the work",
		cfg: func() workload.Config {
			c := raceFree(workload.DefaultConfig())
			c.TxPerBlock = 512
			return c
		},
		ref: refSizes(13, 40),
	},
	{
		name: "ico-contention",
		why:  "hot-set mix with oracle posts, in-memory: parked reads, early publishes and commutative deltas exercise core's conflict path",
		cfg: func() workload.Config {
			c := raceFree(workload.DefaultConfig().HighContention())
			c.TxPerBlock = 512
			c.ERC20Frac, c.DeFiFrac, c.NFTFrac = 0.30, 0.15, 0.05
			c.OracleFrac = 0.20
			return c
		},
		ref: refSizes(16, 50),
	},
	{
		name: "transfers-disk",
		why:  "plain transfers over 64k accounts on disk with fsync per block: state reads, trie hashing, log append and fsync dominate",
		disk: true,
		cfg: func() workload.Config {
			c := workload.DefaultConfig()
			c.TxPerBlock = 512
			c.ContractCallFrac = 0
			c.Users = 64000
			// No transaction calls a contract, so genesis carries one of each
			// family instead of 400k token-balance slots nobody reads.
			c.ERC20s, c.AMMs, c.NFTs, c.ICOs, c.Routers, c.Oracles = 1, 1, 1, 1, 1, 1
			c.TokenZipfS, c.PoolZipfS = 0, 0
			return c
		},
		ref: refSizes(18, 50),
	},
	{
		name: "small-blocks-disk",
		why:  "128-tx blocks on disk with fsync per block: per-block fixed costs (fsync, executor set-up, hand-off) dominate per-tx costs",
		disk: true,
		cfg: func() workload.Config {
			c := raceFree(workload.DefaultConfig())
			c.TxPerBlock = 128
			return c
		},
		ref: refSizes(36, 80),
	},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// pair is the two byte-identical worlds of one run plus the blocks both will
// execute: the DMVCC world and its serial twin, same backend, same fsync
// policy.
type pair struct {
	dmvcc, serial *workload.World
	blocks        []chain.BlockInput
	// dirs are the disk worlds' directories (empty for in-memory).
	dirs []string
}

// close releases both backends and deletes their directories.
func (p *pair) close() error {
	var first error
	for _, w := range []*workload.World{p.dmvcc, p.serial} {
		if w == nil {
			continue
		}
		if err := w.DB.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, d := range p.dirs {
		if err := os.RemoveAll(d); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setup builds the two worlds from cfg (seeded) and pre-generates nBlocks
// blocks. Block generation draws only from the world's seeded PRNG, never
// from its database, so the blocks of one world replay on its twin.
func setup(sp spec, cfg workload.Config, seed int64, nBlocks int, tmpRoot string) (*pair, time.Duration, error) {
	start := time.Now()
	p := &pair{}
	cfg.Seed = seed
	cfg.Backend = func() (state.Backend, error) {
		opts := state.FlatOpts{}
		if sp.disk {
			dir, err := os.MkdirTemp(tmpRoot, sp.name+"-")
			if err != nil {
				return nil, err
			}
			p.dirs = append(p.dirs, dir)
			opts.Dir = dir
		}
		return state.NewFlat(opts)
	}
	var err error
	if p.dmvcc, err = workload.BuildWorld(cfg); err != nil {
		p.close()
		return nil, 0, fmt.Errorf("build dmvcc world: %w", err)
	}
	if p.serial, err = workload.BuildWorld(cfg); err != nil {
		p.close()
		return nil, 0, fmt.Errorf("build serial twin: %w", err)
	}
	if p.dmvcc.DB.Root() != p.serial.DB.Root() {
		p.close()
		return nil, 0, fmt.Errorf("genesis roots differ: %s vs %s", p.dmvcc.DB.Root(), p.serial.DB.Root())
	}
	p.blocks = make([]chain.BlockInput, nBlocks)
	for i := range p.blocks {
		ctx := p.dmvcc.BlockContext()
		p.blocks[i] = chain.BlockInput{Block: ctx, Txs: p.dmvcc.NextBlock()}
	}
	return p, time.Since(start), nil
}
