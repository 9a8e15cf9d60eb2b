// Command wavedecomp performs a multi-resolution wavelet decomposition of
// a PGM image (or a synthetic Landsat-like scene) and writes the
// classical pyramid mosaic, optionally verifying reconstruction. It goes
// through the public options facade (wavelethpc.DecomposeWith), so it
// doubles as that API's end-to-end exercise.
//
// Usage:
//
//	wavedecomp -in scene.pgm -filter db8 -levels 3 -out mosaic.pgm
//	wavedecomp -synthetic 512 -bank bior4.4 -levels 4 -out mosaic.pgm -verify
//	wavedecomp -list-banks
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"wavelethpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavedecomp: ")
	var (
		in        = flag.String("in", "", "input PGM image (binary P5)")
		synthetic = flag.Int("synthetic", 0, "generate an NxN synthetic Landsat-like scene instead of reading -in")
		seed      = flag.Uint64("seed", 42, "synthetic scene seed")
		out       = flag.String("out", "", "output PGM for the pyramid mosaic")
		filterN   = flag.String("filter", "", "filter bank name (see -list-banks; default db8)")
		bankN     = flag.String("bank", "", "synonym for -filter, matching the service's bank parameter")
		listBanks = flag.Bool("list-banks", false, "print the registered bank names and exit")
		levels    = flag.Int("levels", 3, "decomposition levels")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers (1 = sequential)")
		verify    = flag.Bool("verify", false, "reconstruct and report PSNR")
	)
	flag.Parse()

	if *listBanks {
		for _, name := range wavelethpc.Banks() {
			fmt.Println(name)
		}
		return
	}
	// Padding makes each side a multiple of 2^levels, and a padded side
	// longer than a PGM side (2^16) is refused, so 16 levels is the most
	// any input can take; with -synthetic bounded by the same side below,
	// no input reaches that refusal.
	if *levels < 1 || *levels > 16 {
		log.Fatalf("-levels %d: want 1 to 16", *levels)
	}
	name := *filterN
	if *bankN != "" {
		if name != "" && name != *bankN {
			log.Fatalf("conflicting -filter %q and -bank %q", name, *bankN)
		}
		name = *bankN
	}
	if name == "" {
		name = "db8"
	}
	bank, err := wavelethpc.FilterByName(name)
	if err != nil {
		log.Fatal(err)
	}
	var im *wavelethpc.Image
	switch {
	case *synthetic > 1<<16:
		log.Fatalf("-synthetic %d: want at most %d, the longest PGM side", *synthetic, 1<<16)
	case *synthetic > 0:
		im = wavelethpc.Landsat(*synthetic, *synthetic, *seed)
	case *in != "":
		if im, err = wavelethpc.LoadPGM(*in); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -in FILE or -synthetic N")
	}

	// Arbitrary input sizes are padded by symmetric reflection up to the
	// next decomposable size.
	work, origRows, origCols := wavelethpc.PadToDecomposable(im, *levels)
	if work != im {
		fmt.Printf("padded %dx%d input to %dx%d for %d levels\n", origRows, origCols, work.Rows, work.Cols, *levels)
	}
	start := time.Now()
	pyr, err := wavelethpc.DecomposeWith(work, bank,
		wavelethpc.WithLevels(*levels), wavelethpc.WithWorkers(*workers))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("decomposed %dx%d with %s, %d levels, %d workers in %v\n",
		work.Rows, work.Cols, bank.Name, *levels, *workers, elapsed)
	fmt.Printf("approximation band holds %.2f%% of signal energy\n",
		pyr.Approx.Energy()/pyr.Energy()*100)

	if *out != "" {
		mosaic := pyr.Mosaic()
		display := mosaic.Clone()
		display.Normalize(0, 255)
		if err := wavelethpc.SavePGM(*out, display); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote pyramid mosaic to %s\n", *out)
	}
	if *verify {
		back := wavelethpc.Crop(wavelethpc.ParallelReconstruct(pyr, *workers), origRows, origCols)
		psnr := wavelethpc.PSNR(im, back)
		if math.IsInf(psnr, 1) {
			fmt.Println("reconstruction: exact")
		} else {
			fmt.Printf("reconstruction PSNR: %.2f dB\n", psnr)
		}
	}
}
