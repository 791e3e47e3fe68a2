// dmvcc-chainsim runs the RQ3 validator-network simulation standalone:
// a micro testnet of validators mining at a tunable interval, with block
// execution really performed under the chosen scheduler and the network
// timeline simulated on top (the paper's Fig. 8 environment).
//
//	dmvcc-chainsim -mode dmvcc -threads 32 -txs 5000 -interval 1s
//	dmvcc-chainsim -mode serial -txs 5000 -interval 12s
//	dmvcc-chainsim -mode dmvcc -backend flat          # validators on the flat backend
//
// -backend selects each validator's state backend (trie|flat|disk; roots are
// identical by construction), -shards the flat account-trie fan-out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/chainsim"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

func main() {
	mode := flag.String("mode", "dmvcc", "execution scheme: "+modeList())
	threads := flag.Int("threads", 32, "worker threads per validator")
	txs := flag.Int("txs", 2000, "transactions per block")
	blocks := flag.Int("blocks", 4, "blocks to simulate")
	validators := flag.Int("validators", 20, "validators in the network")
	interval := flag.Duration("interval", time.Second, "mean mining interval")
	hot := flag.Bool("hot", false, "use the high-contention workload")
	seed := flag.Int64("seed", 7, "simulation seed")
	backend := flag.String("backend", "trie", "validator state backend: trie|flat|disk")
	shards := flag.Int("shards", 16, "flat-backend account-trie shard count (1 or 16)")
	obsAddr := flag.String("obs", "", "serve the live introspection endpoint (pprof, expvar, /metrics, /telemetry) on this address, e.g. :6060")
	postmortem := flag.Bool("postmortem", false, "print the conflict post-mortem of the most contended block (dmvcc only)")
	flag.Parse()

	var metrics *telemetry.Registry
	var events *eventlog.Log
	if *obsAddr != "" || *postmortem {
		events = eventlog.New()
		events.Enable()
	}
	var timeline *telemetry.Timeline
	if *obsAddr != "" {
		metrics = telemetry.NewRegistry()
		timeline = telemetry.NewTimeline(0)
		stopSampler := timeline.Series.Start(time.Second)
		defer stopSampler()
		addr, stop, err := telemetry.Serve(*obsAddr, metrics, events, nil, timeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmvcc-chainsim:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("observability endpoint on http://%s (pprof, /debug/vars, /metrics, /telemetry/timeline, /telemetry/dashboard)\n", addr)
	}

	if err := run(*mode, *threads, *txs, *blocks, *validators, *interval, *hot, *seed, *backend, *shards, events, metrics, timeline, *postmortem); err != nil {
		fmt.Fprintln(os.Stderr, "dmvcc-chainsim:", err)
		os.Exit(1)
	}
}

// backendFactory resolves -backend/-shards to a per-validator state factory
// (nil = the reference trie DB) and a cleanup hook for disk stores. Each
// factory call opens a distinct store, so every validator gets its own.
func backendFactory(name string, shards int) (func() (state.Backend, error), func(), error) {
	switch name {
	case "", "trie":
		return nil, func() {}, nil
	case "flat":
		return func() (state.Backend, error) {
			return state.NewFlat(state.FlatOpts{Shards: shards})
		}, func() {}, nil
	case "disk":
		root, err := os.MkdirTemp("", "dmvcc-chainsim-disk-*")
		if err != nil {
			return nil, nil, err
		}
		return func() (state.Backend, error) {
				dir, err := os.MkdirTemp(root, "validator-*")
				if err != nil {
					return nil, err
				}
				return state.NewFlat(state.FlatOpts{Shards: shards, Dir: dir})
			}, func() {
				os.RemoveAll(root)
			}, nil
	default:
		return nil, nil, fmt.Errorf("unknown backend %q (want trie, flat, or disk)", name)
	}
}

// modeList names every registered scheduler for the usage string.
func modeList() string {
	names := make([]string, 0, 4)
	for _, m := range chain.Modes() {
		names = append(names, m.String())
	}
	return strings.Join(names, "|")
}

func parseMode(s string) (chain.Mode, error) {
	if _, err := chain.SchedulerFor(chain.Mode(s)); err != nil {
		return "", fmt.Errorf("unknown mode %q (have %s)", s, modeList())
	}
	return chain.Mode(s), nil
}

func run(modeName string, threads, txs, blocks, validators int, interval time.Duration, hot bool, seed int64, backendName string, shards int, events *eventlog.Log, metrics *telemetry.Registry, timeline *telemetry.Timeline, dump bool) error {
	mode, err := parseMode(modeName)
	if err != nil {
		return err
	}
	backend, cleanup, err := backendFactory(backendName, shards)
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := chainsim.DefaultConfig()
	cfg.Validators = validators
	cfg.MeanBlockInterval = interval
	cfg.Blocks = blocks
	cfg.Seed = seed
	w := workload.DefaultConfig()
	if hot {
		w = w.HighContention()
	}
	w.TxPerBlock = txs
	w.Backend = backend
	cfg.Workload = w
	cfg.Log = events
	cfg.Metrics = metrics
	if timeline != nil {
		cfg.Ledger = timeline.Ledger
	}

	fmt.Printf("simulating %d validators, %d blocks x %d txs, %v mean mining interval, %s on %d threads\n",
		validators, blocks, txs, interval, mode, threads)

	sess, err := chainsim.NewSession(cfg, mode)
	if err != nil {
		return err
	}
	res, err := sess.Simulate(threads)
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated chain time: %v\n", res.SimulatedTime.Round(time.Millisecond))
	fmt.Printf("throughput:           %.1f tx/s\n", res.Throughput)
	fmt.Printf("avg block execution:  %v\n", res.AvgExecTime.Round(time.Millisecond))
	fmt.Printf("avg mining wait:      %v\n", res.AvgMiningWait.Round(time.Millisecond))
	fmt.Printf("execution-bound:      %d of %d block cycles\n", res.ExecBound, blocks)

	if pms := sess.PostMortems(); len(pms) > 0 {
		var aborts, mispredicted int
		var wasted uint64
		worst := pms[0]
		for _, pm := range pms {
			aborts += pm.Aborts
			wasted += pm.WastedGas
			if pm.Audit != nil {
				mispredicted += pm.Audit.MispredictedTxs
			}
			if pm.Aborts > worst.Aborts {
				worst = pm
			}
		}
		fmt.Printf("\nconflict forensics:   %d aborts, %d wasted gas, %d mispredicted txs across %d blocks\n",
			aborts, wasted, mispredicted, len(pms))
		if dump {
			fmt.Printf("\nmost contended block:\n%s", worst.Render())
		}
	}
	return nil
}
