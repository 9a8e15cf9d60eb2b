// Command paragonsim regenerates the paper's Figures 5-7: speedup of the
// simulated Intel Paragon wavelet decomposition versus processor count
// for the three filter/level configurations, with both the snake-like and
// the naive stripe placements, plus the block-decomposition ablation.
// It is a thin shell over the "wavelet/scaling" experiment in the
// internal/harness registry.
//
// Usage:
//
//	paragonsim                    # all three figures, snake + naive
//	paragonsim -config F4/L2      # one figure
//	paragonsim -block             # add the block-decomposition ablation
//	paragonsim -trace out.json    # also write a per-rank nx event trace
//	paragonsim -faults            # chaos sweep: fault injection + recovery
//	paragonsim -tilescale         # gateway tile fan-out scale model (hub backpressure)
//	paragonsim -timeout 2m        # abort cleanly if a run hangs
package main

import (
	"flag"
	"log"
	"os"

	"wavelethpc/internal/cli"
	_ "wavelethpc/internal/experiments"
	"wavelethpc/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paragonsim: ")
	var f cli.Flags
	f.AddMachine(flag.CommandLine, "paragon")
	f.AddProcs(flag.CommandLine, "1,2,4,8,16,32")
	f.AddImage(flag.CommandLine)
	f.AddWorkers(flag.CommandLine)
	f.AddTrace(flag.CommandLine)
	f.AddCSV(flag.CommandLine)
	f.AddTimeout(flag.CommandLine)
	var (
		config  = flag.String("config", "", "restrict to one configuration (F8/L1, F4/L2, F2/L4)")
		block   = flag.Bool("block", false, "also run the block-decomposition ablation")
		overlap = flag.Bool("overlap", false, "also run the overlapped guard-exchange ablation")
		faults  = flag.Bool("faults", false, "run the wavelet/faults chaos experiment instead of the scaling figures")
		tile    = flag.Bool("tilescale", false, "run the tile/scale gateway fan-out scale model instead of the scaling figures")
		list    = flag.Bool("list", false, "list the registered experiments and exit")
	)
	flag.Parse()
	if *list {
		cli.ListExperiments(os.Stdout)
		return
	}

	opt, err := f.Options()
	if err != nil {
		log.Fatal(err)
	}
	opt.Config = *config
	opt.Block = *block
	opt.Overlap = *overlap
	name := "wavelet/scaling"
	if *faults {
		name = "wavelet/faults"
	}
	if *tile {
		name = "tile/scale"
		// The scaling figures' -procs default starts at one rank, and
		// tile/scale needs a coordinator plus backends: it keeps its own
		// sweep unless -procs is given.
		procsSet := false
		flag.Visit(func(fl *flag.Flag) { procsSet = procsSet || fl.Name == "procs" })
		if !procsSet {
			opt.Procs = nil
		}
	}

	ctx, cancel := f.Context()
	defer cancel()
	rep, err := harness.RunByName(ctx, name, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Print(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := cli.ExportCSV(rep, opt.CSVDir, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
