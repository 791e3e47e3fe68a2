// Telemetry: attach the scheduler event log and a metrics registry to a chain, execute a
// deliberately contended block under DMVCC, then export a Chrome/Perfetto
// timeline, print the block's critical path, and dump the metrics snapshot.
package main

import (
	"fmt"
	"log"
	"os"

	"dmvcc"
)

const counterSrc = `
contract Counter {
    uint total;
    mapping(address => uint) last;

    function bump(uint amount) public {
        total += amount;
        last[msg.sender] = amount;
    }

    function read() public view returns (uint) {
        return total;
    }
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	events := dmvcc.NewEventLog()
	events.Enable()
	metrics := dmvcc.NewMetrics()

	counterAddr := dmvcc.HexAddress("0xc000000000000000000000000000000000000001")
	senders := make([]dmvcc.Address, 16)
	for i := range senders {
		senders[i] = dmvcc.HexAddress(fmt.Sprintf("0x%040x", 0xa0000+i))
	}

	var counter *dmvcc.Contract
	c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
		for _, s := range senders {
			g.Fund(s, 1_000_000_000)
		}
		var err error
		counter, err = g.Deploy(counterAddr, counterSrc)
		return err
	}, dmvcc.WithThreads(8), dmvcc.WithEventLog(events), dmvcc.WithMetrics(metrics))
	if err != nil {
		return err
	}

	// Every tx bumps the same counter: the writes commute (ω̄ deltas), so
	// DMVCC publishes them as deltas instead of serializing the block.
	txs := make([]*dmvcc.Transaction, 0, len(senders))
	for i, s := range senders {
		txs = append(txs, dmvcc.MustCall(0, s, counter, 0, "bump", dmvcc.NewWord(uint64(i+1))))
	}
	res, err := c.ExecuteBlock(dmvcc.ModeDMVCC, txs)
	if err != nil {
		return err
	}
	fmt.Printf("block committed: root=%s early=%d deltas=%d aborts=%d\n",
		res.Root.Hex()[:18], res.Stats.EarlyPublishes, res.Stats.DeltaPublishes, res.Stats.Aborts)

	// Timeline: one track per scheduler worker, loadable in ui.perfetto.dev.
	f, err := os.Create("telemetry_trace.json")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.ExportTrace(f); err != nil {
		return err
	}
	fmt.Println("wrote telemetry_trace.json (load in https://ui.perfetto.dev)")

	// Critical path: the dependency chain that bounds the block's makespan.
	if cp := c.CriticalPath(res.Block.Header.Number); cp != nil {
		fmt.Print(cp.Render())
	}

	// Metrics registry snapshot as JSON.
	blob, err := metrics.MarshalJSON()
	if err != nil {
		return err
	}
	fmt.Printf("metrics: %s\n", blob)
	return nil
}
