// Command perfbench is trajmotif's repository benchmark. It replays a
// fixed, seed-derived job list for one workload, checks every timed
// answer against the library facade, and prints one JSON result line.
//
//	sh perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it runs the traced one-client pass and
// carries the per-layer metrics instead. Human-readable report lines
// (latency sample counts, per-route latencies, store counters) precede
// the JSON line. See README.md in this directory for the workloads, the
// metric glossary and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

// window is the length of the measured phase.
func (o *options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload and returns its result, with the
// metrics of the requested mode.
type workloadFunc func(o *options, env *runEnv) (*result, error)

var workloads = map[string]workloadFunc{
	"paper-cold":  runPaperCold,
	"serve-warm":  runServeWarm,
	"serve-churn": runServeChurn,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-cold, serve-warm or serve-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the job list is derived from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()

	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	env := newRunEnv()
	defer env.close()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children and removing temporary files\n", s)
		env.close()
		os.Exit(130)
	}()

	res, err := w(&o, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := encodeResult(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Println(line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations returned a wrong or failed answer\n",
			o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// encodeResult renders the result line, refusing non-finite values
// (JSON has no encoding for them and they mean a metric had no base).
func encodeResult(r *result) (string, error) {
	if r.Attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// report prints one human-readable line ahead of the result line.
func report(format string, args ...any) {
	fmt.Printf("perfbench: "+format+"\n", args...)
}
