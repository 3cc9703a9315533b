// Command mmbench is the repository's benchmark (see
// internal/bench/README.md and BENCHMARK.json).
//
// Usage:
//
//	mmbench run --workload W --seed N --seconds S --trace 0|1   # one run; last stdout line is the result JSON (cmd/mmbench/run.sh ends in this)
//	mmbench [suite] [-seed N] [-k K] [-out DIR]             # every workload: k untraced runs + 1 traced, results file
//	mmbench selfcheck [-seed N] [-k K] [-out DIR]           # two suites of this tree, compared
//	mmbench compare A.json B.json                           # apply each metric's bound; non-zero exit on regression
//	mmbench list [-json]                                    # workloads and metrics; -json prints BENCHMARK.json
//	mmbench golden [-out DIR]                               # regenerate internal/bench/golden.json on stdout
//
// Each run is one fresh process, so peak RSS, GC state and the
// operational counters are per run; suite and selfcheck start one
// child `mmbench run …` per run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"marketminer/internal/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := dispatch(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch cmd, rest := args[0], args[1:]; cmd {
		case "run":
			return run(ctx, rest)
		case "suite":
			return suite(ctx, rest)
		case "selfcheck":
			return selfcheck(ctx, rest)
		case "compare":
			return compare(rest)
		case "list":
			return list(rest)
		case "golden":
			return golden(ctx, rest)
		default:
			return fmt.Errorf("unknown command %q (want run, suite, selfcheck, compare, list or golden)", cmd)
		}
	}
	return suite(ctx, args)
}

// run is the driver's protocol: one run of one workload, the result as
// the last line of standard output.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mmbench run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see mmbench list)")
	seed := fs.Int64("seed", bench.DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", bench.RunSeconds, "run length in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", bench.DefaultOut, "directory for work files and trace_<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := bench.Run(ctx, bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Dir: *out})
	if err != nil {
		return err
	}
	if err := bench.PrintRun(os.Stdout, rep); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", *workload, rep.Failed, rep.Attempted)
	}
	return nil
}

func list(args []string) error {
	fs := flag.NewFlagSet("mmbench list", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		blob, err := bench.BenchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(blob)
		return err
	}
	fmt.Print(bench.ListText())
	return nil
}
