package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"marketminer/internal/bench"
)

// suiteFlags are shared by suite, selfcheck and golden.
type suiteFlags struct {
	seed    int64
	k       int
	seconds float64
	out     string
}

func parseSuiteFlags(name string, args []string) (suiteFlags, error) {
	var f suiteFlags
	fs := flag.NewFlagSet("mmbench "+name, flag.ContinueOnError)
	fs.Int64Var(&f.seed, "seed", bench.DefaultSeed, "input seed")
	fs.IntVar(&f.k, "k", 5, "untraced runs per workload in a set (>= 3)")
	fs.Float64Var(&f.seconds, "seconds", bench.RunSeconds, "run length in seconds")
	fs.StringVar(&f.out, "out", bench.DefaultOut, "directory for results, traces and work files")
	err := fs.Parse(args)
	return f, err
}

func (f suiteFlags) config() (bench.SuiteConfig, error) {
	exe, err := os.Executable()
	if err != nil {
		return bench.SuiteConfig{}, err
	}
	return bench.SuiteConfig{Exe: exe, Seed: f.seed, K: f.k, Seconds: f.seconds, Out: f.out, Log: os.Stderr}, nil
}

// runSet runs one set and writes results_<tag>.json.
func runSet(ctx context.Context, f suiteFlags, tag string) (*bench.Results, string, error) {
	cfg, err := f.config()
	if err != nil {
		return nil, "", err
	}
	res, err := bench.RunSuite(ctx, cfg)
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(f.out, "results_"+tag+".json")
	return res, path, bench.WriteResults(path, res)
}

func failFracs(res *bench.Results) error {
	for _, w := range res.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: fail_frac %g (%d of %d operations failed)", w.Name, w.FailFrac, w.Failed, w.Attempted)
		}
	}
	return nil
}

func suite(ctx context.Context, args []string) error {
	f, err := parseSuiteFlags("suite", args)
	if err != nil {
		return err
	}
	res, path, err := runSet(ctx, f, "latest")
	if err != nil {
		return err
	}
	fmt.Print(bench.MetricLines(res))
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\nresults written to %s\n", blob, path)
	return failFracs(res)
}

func selfcheck(ctx context.Context, args []string) error {
	f, err := parseSuiteFlags("selfcheck", args)
	if err != nil {
		return err
	}
	a, pa, err := runSet(ctx, f, "selfcheck_a")
	if err != nil {
		return err
	}
	b, pb, err := runSet(ctx, f, "selfcheck_b")
	if err != nil {
		return err
	}
	fmt.Printf("sets written to %s and %s\n", pa, pb)
	return report(a, b)
}

func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: mmbench compare A.json B.json")
	}
	a, err := bench.ReadResults(args[0])
	if err != nil {
		return err
	}
	b, err := bench.ReadResults(args[1])
	if err != nil {
		return err
	}
	return report(a, b)
}

func report(a, b *bench.Results) error {
	rep, err := bench.Compare(a, b)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if err := failFracs(b); err != nil {
		return err
	}
	if rep.Failed() {
		return fmt.Errorf("B regressed against A")
	}
	return nil
}

// golden prints a fresh golden.json: one untraced run of every
// workload at the default seed.
func golden(ctx context.Context, args []string) error {
	f, err := parseSuiteFlags("golden", args)
	if err != nil {
		return err
	}
	g, err := bench.MakeGolden(ctx, f.seconds, f.out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false) // the producing command holds a '>'
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}
