// Command perfbench is the repository benchmark: it drives the real stack
// (a 4-shard cluster behind the binary wire protocol on loopback TCP) with
// one of three workloads, checks every answer it can against a brute-force
// oracle, and prints end-to-end metrics, or with -trace 1 per-layer metrics
// from a traced run. See METRICS.md for what each metric means and why each
// workload exists.
//
//	go run . -workload remote-read -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "remote-read, write-mix or mobile-tour")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "timed seconds: 60% latency phase, 40% saturation phase")
	trace := flag.Int("trace", 0, "1 runs the traced topology and prints per-layer metrics")
	base := flag.String("dir", ".bench_build", "directory for per-run files and traces")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := &runner{sp: sp, seed: *seed, base: *base, nproc: runtime.NumCPU(), seconds: time.Duration(*seconds) * time.Second}
	fmt.Printf("# perfbench workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		sp.name, r.seed, r.nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	if sp.name == "write-mix" {
		fmt.Println("# every shard logs to a WAL with WALNoSync=true: fsync here would time the host disk, not the program")
	}
	if err := os.MkdirAll(r.base, 0o755); err != nil {
		fail("run dir: %v", err)
	}
	dir, err := os.MkdirTemp(r.base, "run-")
	if err == nil {
		r.dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fail("run dir: %v", err)
	}
	defer os.RemoveAll(r.dir)

	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.timed()
	}
	if err != nil {
		os.RemoveAll(r.dir)
		fail("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints every metric on its own line and packs them for the JSON
// result line.
func report(ms []metric, attempted, failed int64) *result {
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		fmt.Printf("%-34s %16.6f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return res
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[len(s)/2]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
