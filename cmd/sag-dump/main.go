// sag-dump prints the state access graphs of a minisol contract: the static
// P-SAG (read/write nodes with placeholder keys, loop nodes, release points
// with gas bounds — the paper's Fig. 3a) and, given a call specification,
// the dynamic C-SAG refined with concrete inputs against an empty snapshot
// (Fig. 3b).
//
//	sag-dump contract.msol
//	sag-dump -call 'transfer(0xb0b...,100)' contract.msol
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

func main() {
	call := flag.String("call", "", "optional call spec: name(arg,arg,...) with decimal or 0x-hex args")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sag-dump [-call 'fn(args)'] <file.msol>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *call); err != nil {
		fmt.Fprintln(os.Stderr, "sag-dump:", err)
		os.Exit(1)
	}
}

func run(path, call string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	compiled, err := minisol.Compile(string(src))
	if err != nil {
		return err
	}
	contractAddr := types.HexToAddress("0xc000000000000000000000000000000000000001")
	reg := sag.NewRegistry()
	info := reg.RegisterCompiled(contractAddr, compiled)

	psag := sag.BuildPSAG(info)
	fmt.Print(psag.Format())

	if call == "" {
		return nil
	}
	method, args, err := parseCall(call)
	if err != nil {
		return err
	}
	db := state.NewDB()
	o := state.NewOverlay(db)
	o.SetCode(contractAddr, compiled.Code)
	sender := types.HexToAddress("0xa11ce00000000000000000000000000000000001")
	o.SetBalance(sender, u256.NewUint64(1_000_000_000))
	if _, err := db.Commit(o.Changes()); err != nil {
		return err
	}
	tx := &types.Transaction{
		From: sender,
		To:   contractAddr,
		Gas:  10_000_000,
		Data: minisol.CallData(method, args...),
	}
	blockCtx := evm.BlockContext{Number: 1, Timestamp: 1_650_000_000, GasLimit: 1_000_000_000, ChainID: 1}
	an := sag.NewAnalyzer(reg)
	csag, err := an.Analyze(tx, 0, db, blockCtx)
	if err != nil {
		return err
	}
	fmt.Printf("\nC-SAG for %s (refined against the latest snapshot):\n", call)
	fmt.Printf("  %s\n", csag)
	printOutcome(csag.Outcome)
	return nil
}

// printOutcome renders what the pre-run computed: the executor commits it
// as-is when the reads still return these values at execution time.
func printOutcome(out *sag.Outcome) {
	fmt.Printf("  pre-run outcome: %s, gas %d, %d log(s)\n", out.Receipt.Status, out.Receipt.GasUsed, len(out.Receipt.Logs))
	section := func(title, verb string, list []sag.Access) {
		for _, a := range list {
			val := a.Val.String()
			if a.Item.Kind == sag.KindCode {
				val = fmt.Sprintf("code %s (%d bytes)", types.Keccak(a.Code).Hex()[:10], len(a.Code))
			}
			fmt.Printf("    %-6s %-30s %s %s  @gas %d\n", title, a.Item, verb, val, a.Offset)
		}
	}
	section("read", "=", out.Reads)
	section("write", "←", out.Writes)
	section("delta", "+=", out.Deltas)
}

// parseCall parses "name(a,b,...)" with decimal or 0x-hex arguments.
func parseCall(s string) (string, []u256.Int, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("bad call spec %q", s)
	}
	name := strings.TrimSpace(s[:open])
	body := strings.TrimSpace(s[open+1 : len(s)-1])
	if body == "" {
		return name, nil, nil
	}
	var args []u256.Int
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if strings.HasPrefix(part, "0x") || strings.HasPrefix(part, "0X") {
			w, err := u256.FromHex(part)
			if err != nil {
				return "", nil, err
			}
			args = append(args, w)
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad argument %q: %w", part, err)
		}
		args = append(args, u256.NewUint64(v))
	}
	return name, args, nil
}
