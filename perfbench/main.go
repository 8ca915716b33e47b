// Command perfbench is the repository benchmark. It drives the paradigm
// registry (netsim.Paradigms → Build → Submit → RunSpan) on one of three
// workloads, checks the simulated outputs, and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics, as the last line of
// standard output:
//
//	go run . --workload throughput-mix --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: throughput-mix, wide-gossip or cold-join")
	seed := fs.Int64("seed", 1, "workload and network seed")
	seconds := fs.Int("seconds", 10, "host seconds to keep repeating passes")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be >= 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		fs.Usage()
		return 2
	}
	// One process on at most two processors, so the figures do not
	// depend on how many cores the host has beyond that.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, w, res)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		for _, f := range res.failures {
			fmt.Fprintln(stderr, "perfbench: check failed:", f)
		}
		return 1
	}
	return 0
}
