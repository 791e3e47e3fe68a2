package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp says under which conditions a result was measured, so a reader can
// judge whether to trust it without rerunning.
type stamp struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Traced        bool   `json:"traced"`
	GoVersion     string `json:"go_version"`
	NProc         int    `json:"nproc"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	Threads       int    `json:"threads"`
	GOGC          string `json:"GOGC"`
	Backend       string `json:"backend"`
	FsyncPolicy   string `json:"fsync_policy"`
	TmpFilesystem string `json:"tmp_filesystem"`
	GitCommit     string `json:"git_commit"`
	TxPerBlock    int    `json:"tx_per_block"`
	Blocks        int    `json:"blocks_attempted"`
	Txs           int    `json:"txs_attempted"`
	// Samples is the sample count behind each reported statistic.
	Samples map[string]int `json:"samples"`
	// P90Beyond is how many latency samples lie beyond the reported p90; the
	// percentile is only sound with at least 10.
	P90Beyond     int  `json:"p90_samples_beyond"`
	OracleChecked bool `json:"oracle_checked"`
}

func newStamp(sp spec, seed int64, seconds int, traced bool, threads int, tmpRoot string) stamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return stamp{
		Workload:      sp.name,
		Seed:          seed,
		Seconds:       seconds,
		Traced:        traced,
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Threads:       threads,
		GOGC:          gogc,
		Backend:       sp.backend(),
		FsyncPolicy:   sp.fsyncPolicy(),
		TmpFilesystem: filesystemOf(tmpRoot),
		GitCommit:     gitCommit("."),
		TxPerBlock:    sp.cfg().TxPerBlock,
		Samples:       map[string]int{},
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// filesystemOf names the filesystem type holding dir: the mount with the
// longest mount point that prefixes dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mount := fields[1]
		under := mount == "/" || abs == mount || strings.HasPrefix(abs, mount+"/")
		if under && len(mount) >= len(best) {
			best, fs = mount, fields[2]
		}
	}
	return fs
}

// gitCommit resolves HEAD of the repository rooted at root by reading its
// files (no git process, no search in parent directories); "unknown" where
// root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	line := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(line, "ref: ")
	if !isRef {
		return line
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(l, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
