// Command benchreg reduces `go test -bench` output to benchstat-style
// medians and gates performance regressions against a committed
// baseline. It backs the CI benchmark-regression job and runs
// identically locally:
//
//	go test -bench . -benchmem -count=5 -run '^$' | tee bench.txt
//	benchreg -in bench.txt -out BENCH_CURRENT.json \
//	         -baseline BENCH_BASELINE.json -max-regress 0.30
//
// Without -baseline it only writes the summary JSON. With -baseline it
// compares the gated set (benchmarks matching -filter — the
// pipeline/flow hot paths by default) and exits 1 when any median
// ns/op or allocs/op regressed by more than -max-regress (allocs get a
// small absolute slop so 2-alloc benchmarks cannot flake the gate) or a
// gated benchmark disappeared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"cnfetdk/internal/benchreg"
)

// defaultFilter gates the staged-pipeline and flow hot paths: library
// build fan-out, one arc's NLDM characterization grid, Monte Carlo
// sharding, the cached flow rerun, the sweep engine, the disk-backed
// artifact store, the compiled transient solver ladder, the warmed
// variation-ensemble re-run (its allocs/op is the worker pool's
// constant, never per lane or step), and the STA engine (sta.Analyze
// on mult8 and the full adder). The transient wire-cap delay sweep
// (DelaySweepTransient) already matches Sweep.
const defaultFilter = `Library|Characterization|MonteCarlo|FlowCachedRerun|Sweep|StoreDisk|Transient|VariationEnsemble|STA`

func main() {
	in := flag.String("in", "-", "benchmark output to read (\"-\" = stdin)")
	out := flag.String("out", "", "write the reduced JSON summary here")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (empty = no gating)")
	maxRegress := flag.Float64("max-regress", 0.30, "maximum tolerated ns/op and allocs/op regression (0.30 = +30%)")
	filter := flag.String("filter", defaultFilter, "regexp selecting the gated benchmarks")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	cur, _, err := benchreg.Parse(r)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines in %s", *in))
	}
	fmt.Fprintf(os.Stderr, "benchreg: %d benchmarks reduced\n", len(cur.Benchmarks))

	if *out != "" {
		blob, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchreg: wrote %s\n", *out)
	}

	if *baseline == "" {
		return
	}
	blob, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	var base benchreg.File
	if err := json.Unmarshal(blob, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baseline, err))
	}
	re, err := regexp.Compile(*filter)
	if err != nil {
		fatal(fmt.Errorf("bad -filter: %w", err))
	}
	deltas, failed := benchreg.Compare(&base, cur, re, *maxRegress)
	benchreg.Format(os.Stdout, deltas)
	for _, d := range deltas {
		if d.Warning != "" {
			fmt.Fprintf(os.Stderr, "benchreg: warning: %s: %s\n", d.Name, d.Warning)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchreg: FAIL — gated benchmark regressed beyond %+.0f%% against %s\n",
			100**maxRegress, *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreg: ok — no gated regression beyond %+.0f%%\n", 100**maxRegress)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreg:", err)
	os.Exit(1)
}
