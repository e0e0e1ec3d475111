// Command metrobench regenerates the paper's tables and figures.
//
// Usage:
//
//	metrobench -list
//	metrobench -run fig10
//	metrobench -run all -quick
//
// Output is the same rows/series the paper reports, as aligned text tables.
// The registry runs as written: every experiment pins its own deployments.
// To explore one deployment under another policy, elastic tuning, ring size
// or objective, use metrosim.
//
// -pprof-addr serves net/http/pprof on its own listener while the sweeps
// run (off by default) — profile a long -run all the same way a production
// service would be.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"

	"metronome/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment ID (tab1, fig10, ...) or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		quick    = flag.Bool("quick", false, "shrink durations ~10x for a smoke run")
		seed     = flag.Uint64("seed", 42, "experiment seed (runs are deterministic per seed)")
		parallel = flag.Int("parallel", 0, "simulations to run concurrently per sweep (0 = GOMAXPROCS); output is identical at any setting")
		doc      = flag.Bool("doc", false, "print the EXPERIMENTS.md paper-vs-measured skeleton and exit")
		ppaddr   = flag.String("pprof-addr", "", "serve net/http/pprof while experiments run (off by default)")
	)
	flag.Parse()

	if *ppaddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*ppaddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "metrobench: pprof listener failed:", err)
			}
		}()
	}

	if *doc {
		experiments.Doc(os.Stdout)
		return
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
			fmt.Printf("  %-12s paper: %s\n", "", e.Paper)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: metrobench -run <id> (or -run all)")
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Parallel: *parallel}
	if *run == "all" {
		for _, e := range experiments.All() {
			fmt.Printf("--- %s: %s ---\n", e.ID, e.Title)
			for _, t := range e.Run(opts) {
				t.Render(os.Stdout)
			}
		}
		return
	}
	e, ok := experiments.ByID(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "metrobench: unknown experiment %q (try -list)\n", *run)
		os.Exit(1)
	}
	fmt.Printf("--- %s: %s ---\npaper: %s\n\n", e.ID, e.Title, e.Paper)
	for _, t := range e.Run(opts) {
		t.Render(os.Stdout)
	}
}
