package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/wavelet"
)

func testImage() *image.Image { return image.Landsat(128, 128, 42) }

func pyramidsEqual(a, b *wavelet.Pyramid, tol float64) bool {
	if a.Depth() != b.Depth() || !image.Equal(a.Approx, b.Approx, tol) {
		return false
	}
	for i := range a.Levels {
		if !image.Equal(a.Levels[i].LH, b.Levels[i].LH, tol) ||
			!image.Equal(a.Levels[i].HL, b.Levels[i].HL, tol) ||
			!image.Equal(a.Levels[i].HH, b.Levels[i].HH, tol) {
			return false
		}
	}
	return true
}

func TestParallelDecomposeMatchesSequential(t *testing.T) {
	im := testImage()
	for _, bank := range []*filter.Bank{filter.Haar(), filter.Daubechies8()} {
		seq, err := wavelet.Decompose(im, bank, filter.Periodic, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 16} {
			par, err := ParallelDecomposeTol(im, bank, filter.Periodic, 3, workers, 0)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !pyramidsEqual(seq, par, 0) {
				t.Errorf("%s workers=%d: parallel != sequential", bank.Name, workers)
			}
		}
	}
}

func TestParallelDecomposeDefaultWorkers(t *testing.T) {
	im := testImage()
	p, err := ParallelDecomposeTol(im, filter.Haar(), filter.Periodic, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := wavelet.Decompose(im, filter.Haar(), filter.Periodic, 2)
	if !pyramidsEqual(seq, p, 0) {
		t.Error("default worker count changed results")
	}
}

func TestParallelDecomposeRejectsBadShapes(t *testing.T) {
	if _, err := ParallelDecomposeTol(image.New(100, 128), filter.Haar(), filter.Periodic, 3, 2, 0); err == nil {
		t.Error("100 rows accepted for 3 levels")
	}
}

// TestForwardRejectsEmptyBank: a bank without analysis filters panics
// with a *wavelet.UsageError on the calling goroutine, before any range
// reaches a pool worker, where it would divide by the zero filter length
// and kill the process.
func TestForwardRejectsEmptyBank(t *testing.T) {
	im := testImage()
	for _, tc := range []struct {
		label string
		fn    func()
	}{
		{"ParallelDecomposeTol/w1", func() { ParallelDecomposeTol(im, &filter.Bank{}, filter.Periodic, 2, 1, 0) }},
		{"ParallelDecomposeTol/w2", func() { ParallelDecomposeTol(im, &filter.Bank{Name: "empty"}, filter.Periodic, 2, 2, 0) }},
		{"ParallelDecomposeTol/nil", func() { ParallelDecomposeTol(im, nil, filter.Periodic, 2, 2, 1) }},
		{"DecomposeBatch", func() {
			DecomposeBatch(context.Background(), []*image.Image{im, im}, &filter.Bank{}, filter.Periodic, 2, 2, 0)
		}},
	} {
		func() {
			defer func() {
				if _, ok := recover().(*wavelet.UsageError); !ok {
					t.Errorf("%s: want a recoverable *wavelet.UsageError panic", tc.label)
				}
			}()
			tc.fn()
		}()
	}
}

func TestParallelReconstructRoundTrip(t *testing.T) {
	im := testImage()
	for _, workers := range []int{1, 4} {
		p, err := ParallelDecomposeTol(im, filter.Daubechies4(), filter.Periodic, 3, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		back := ParallelReconstruct(p, workers)
		if !image.Equal(im, back, 1e-8) {
			t.Errorf("workers=%d: round trip mismatch", workers)
		}
	}
	// Parallel reconstruct of a sequential pyramid also matches.
	seq, _ := wavelet.Decompose(im, filter.Daubechies4(), filter.Periodic, 3)
	back := ParallelReconstruct(seq, 0)
	if !image.Equal(im, back, 1e-8) {
		t.Error("ParallelReconstruct of sequential pyramid mismatch")
	}
}

func distCfg(p int, bank *filter.Bank, levels int) DistConfig {
	return DistConfig{
		Machine:   mesh.Paragon(),
		Placement: mesh.SnakePlacement{Width: 4},
		Procs:     p,
		Bank:      bank,
		Levels:    levels,
	}
}

func TestDistributedDecomposeMatchesSequentialAllConfigs(t *testing.T) {
	im := testImage()
	for _, cfg := range PaperConfigs() {
		seq, err := wavelet.Decompose(im, cfg.Bank, filter.Periodic, cfg.Levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			res, err := DistributedDecompose(im, distCfg(p, cfg.Bank, cfg.Levels))
			if err != nil {
				t.Fatalf("%s P=%d: %v", cfg.Label, p, err)
			}
			if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
				t.Errorf("%s P=%d: distributed != sequential", cfg.Label, p)
			}
		}
	}
}

func TestDistributedDecomposeNaivePlacementSameData(t *testing.T) {
	im := testImage()
	seq, _ := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 1)
	cfg := distCfg(8, filter.Daubechies8(), 1)
	cfg.Placement = mesh.NaivePlacement{Width: 4}
	res, err := DistributedDecompose(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
		t.Error("naive placement changed numerical results")
	}
}

func TestDistributedValidation(t *testing.T) {
	im := testImage()
	// 128 rows, 4 levels -> deepest 16 rows; 16 ranks leaves 1 row: odd.
	if _, err := DistributedDecompose(im, distCfg(16, filter.Haar(), 4)); err == nil {
		t.Error("odd deepest stripe accepted")
	}
	// Guard too deep: D8 with 4 levels on 128 rows, 8 ranks -> deepest
	// stripes 2 rows < f-2 = 6.
	if _, err := DistributedDecompose(im, distCfg(8, filter.Daubechies8(), 4)); err == nil {
		t.Error("insufficient guard depth accepted")
	}
	// Non-dividing rank count.
	if _, err := DistributedDecompose(im, distCfg(3, filter.Haar(), 1)); err == nil {
		t.Error("non-dividing rank count accepted")
	}
}

func TestDistributedPhaseTimesPartitionElapsed(t *testing.T) {
	im := testImage()
	res, err := DistributedDecompose(im, distCfg(4, filter.Daubechies4(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScatterTime <= 0 || res.DecomposeTime <= 0 || res.GatherTime <= 0 {
		t.Errorf("phase times: %g %g %g", res.ScatterTime, res.DecomposeTime, res.GatherTime)
	}
	sum := res.ScatterTime + res.DecomposeTime + res.GatherTime
	// Phase maxima are over different ranks, so their sum bounds elapsed
	// from above (within float noise) and elapsed exceeds each phase.
	if res.Sim.Elapsed > sum+1e-9 {
		t.Errorf("elapsed %g exceeds phase sum %g", res.Sim.Elapsed, sum)
	}
	if res.Sim.Elapsed < res.DecomposeTime {
		t.Errorf("elapsed %g below decompose phase %g", res.Sim.Elapsed, res.DecomposeTime)
	}
}

func TestSpeedupImprovesWithProcs(t *testing.T) {
	im := image.Landsat(256, 256, 3)
	curve, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, PaperConfigs()[0], []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	s := curve.Points
	if !(s[1].Speedup > s[0].Speedup && s[2].Speedup > s[1].Speedup) {
		t.Errorf("speedups not increasing: %+v", s)
	}
	// Modest scalability: well below linear at 8 procs (communication
	// bound, as the paper reports).
	if s[3].Speedup >= 8 {
		t.Errorf("super-linear speedup %g at P=8", s[3].Speedup)
	}
}

func TestMoreLevelsWorseSpeedup(t *testing.T) {
	// The paper: "With the increase in communications requirements, due
	// to the increase in the levels of decomposition, the speedup curve
	// continues to drop, with best results seen at one level and worst
	// at 4 levels."
	im := image.Landsat(512, 512, 3)
	procs := []int{32}
	cfgs := PaperConfigs()
	var sp [3]float64
	for i, cfg := range cfgs {
		curve, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, cfg, procs)
		if err != nil {
			t.Fatal(err)
		}
		sp[i] = curve.Points[0].Speedup
	}
	if !(sp[0] > sp[1] && sp[1] > sp[2]) {
		t.Errorf("speedup ordering F8/L1 > F4/L2 > F2/L4 violated: %v", sp)
	}
}

func TestNaivePlacementSuffersMoreConflicts(t *testing.T) {
	// Figure 4's point: beyond one partition row, naive placement's
	// wrap-around messages collide under XY routing; snake placement's
	// distance-1 exchanges do not. Compare guard-phase conflict counts.
	im := image.Landsat(512, 512, 3)
	cfg := PaperConfigs()[2] // F2/L4: most exchanges
	for _, p := range []int{16, 32} {
		naive, err := RunScaling(im, mesh.Paragon(), mesh.NaivePlacement{Width: 4}, cfg, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		snake, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, cfg, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		if naive.Points[0].Contended <= snake.Points[0].Contended {
			t.Errorf("P=%d: naive conflicts %d <= snake %d", p, naive.Points[0].Contended, snake.Points[0].Contended)
		}
		if naive.Points[0].GuardTime <= snake.Points[0].GuardTime {
			t.Errorf("P=%d: naive guard %g <= snake %g", p, naive.Points[0].GuardTime, snake.Points[0].GuardTime)
		}
	}
}

func TestPlacementsIdenticalWithinOneRow(t *testing.T) {
	// "Scalability till 4 processors were obtained using the straight
	// forward data distribution" — within one partition row the two
	// placements are the same machine nodes, so simulated times match.
	im := image.Landsat(256, 256, 3)
	cfg := PaperConfigs()[0]
	for _, p := range []int{2, 4} {
		naive, err := RunScaling(im, mesh.Paragon(), mesh.NaivePlacement{Width: 4}, cfg, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		snake, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, cfg, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(naive.Points[0].Elapsed-snake.Points[0].Elapsed) > 1e-12 {
			t.Errorf("P=%d: placements diverge inside one row", p)
		}
	}
}

func TestSerialTimeMatchesPaperTable1(t *testing.T) {
	paragon := mesh.Paragon()
	dec := mesh.DEC5000()
	cases := []struct {
		m       *mesh.Machine
		f, lv   int
		want    float64
		tolFrac float64
	}{
		{paragon, 8, 1, 4.227, 0.03},
		{paragon, 4, 2, 3.45, 0.03},
		{paragon, 2, 4, 2.78, 0.03},
		{dec, 8, 1, 5.47, 0.08},
		{dec, 4, 2, 4.54, 0.08},
		{dec, 2, 4, 4.11, 0.08},
	}
	for _, c := range cases {
		got := SerialTime(c.m, 512, 512, c.f, c.lv)
		if math.Abs(got-c.want) > c.tolFrac*c.want {
			t.Errorf("%s F%d/L%d: %g, want %g ± %.0f%%", c.m.Name, c.f, c.lv, got, c.want, c.tolFrac*100)
		}
	}
}

func TestTable1ReproducesParagon32(t *testing.T) {
	im := image.Landsat(512, 512, 1)
	rows, err := Table1(im, [3]float64{0.0169, 0.0138, 0.0123})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	want32 := [3]float64{0.613, 0.632, 0.6623}
	for i, w := range want32 {
		got := rows[2].Seconds[i]
		if math.Abs(got-w) > 0.08*w {
			t.Errorf("Paragon 32-proc col %d: %g, want %g ± 8%%", i, got, w)
		}
	}
	// Ordering across configurations matches the paper: parallel time
	// grows with levels even as serial time shrinks.
	if !(rows[2].Seconds[0] < rows[2].Seconds[1] && rows[2].Seconds[1] < rows[2].Seconds[2]) {
		t.Errorf("32-proc ordering violated: %v", rows[2].Seconds)
	}
	if !(rows[1].Seconds[0] > rows[1].Seconds[1] && rows[1].Seconds[1] > rows[1].Seconds[2]) {
		t.Errorf("1-proc ordering violated: %v", rows[1].Seconds)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "MasPar") || !strings.Contains(out, "F8/L1") {
		t.Errorf("FormatTable1 output:\n%s", out)
	}
}

func TestBlockGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 8: {4, 2}, 16: {4, 4}, 32: {8, 4}, 12: {4, 3}}
	for p, want := range cases {
		gx, gy := BlockGrid(p)
		if gx != want[0] || gy != want[1] {
			t.Errorf("BlockGrid(%d) = %d,%d want %v", p, gx, gy, want)
		}
		if gx*gy != p {
			t.Errorf("BlockGrid(%d) does not factor p", p)
		}
	}
}

func TestBlockDecomposeMatchesSequential(t *testing.T) {
	im := testImage()
	for _, tc := range []struct {
		p      int
		bank   *filter.Bank
		levels int
	}{
		{1, filter.Daubechies8(), 1},
		{4, filter.Daubechies8(), 1},
		{8, filter.Daubechies4(), 2},
		{16, filter.Haar(), 2},
	} {
		seq, err := wavelet.Decompose(im, tc.bank, filter.Periodic, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BlockDecompose(im, distCfg(tc.p, tc.bank, tc.levels))
		if err != nil {
			t.Fatalf("P=%d %s/L%d: %v", tc.p, tc.bank.Name, tc.levels, err)
		}
		if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
			t.Errorf("P=%d %s/L%d: block != sequential", tc.p, tc.bank.Name, tc.levels)
		}
	}
}

func TestBlockValidation(t *testing.T) {
	im := testImage()
	// D8 on 128x128 with 16 ranks (4x4 grid) and 3 levels: deepest
	// blocks are 8x8, f-2=6 <= 8 fine; but 4 levels: deepest 4x4 < 6.
	if _, err := BlockDecompose(im, distCfg(16, filter.Daubechies8(), 4)); err == nil {
		t.Error("undersized deepest block accepted")
	}
}

func TestBlockNeedsMoreTransactionsThanStriped(t *testing.T) {
	// Figure 3's argument: striping halves the number of guard
	// transactions per level.
	im := image.Landsat(256, 256, 9)
	striped, err := DistributedDecompose(im, distCfg(8, filter.Daubechies4(), 2))
	if err != nil {
		t.Fatal(err)
	}
	block, err := BlockDecompose(im, distCfg(8, filter.Daubechies4(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if block.Sim.Msgs <= striped.Sim.Msgs {
		t.Errorf("block msgs %d <= striped msgs %d", block.Sim.Msgs, striped.Sim.Msgs)
	}
}

func TestScalingCurveString(t *testing.T) {
	im := image.Landsat(128, 128, 5)
	curve, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, PaperConfigs()[0], []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	out := curve.String()
	if !strings.Contains(out, "F8/L1") || !strings.Contains(out, "speedup") {
		t.Errorf("curve String:\n%s", out)
	}
}

func TestDistributedBudgetComposition(t *testing.T) {
	im := image.Landsat(256, 256, 4)
	res, err := DistributedDecompose(im, distCfg(8, filter.Daubechies8(), 1))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Sim.Budget
	if b.UsefulPct <= 0 || b.CommPct <= 0 || b.RedundancyPct <= 0 {
		t.Errorf("budget components missing: %+v", b)
	}
	// Communication dominates overhead for this problem (the paper's
	// central observation).
	if b.CommPct <= b.RedundancyPct {
		t.Errorf("comm %g%% not dominant over redundancy %g%%", b.CommPct, b.RedundancyPct)
	}
	if b.UsefulPct+b.CommPct+b.RedundancyPct > 100+1e-9 {
		t.Errorf("budget exceeds 100%%")
	}
}

func TestOverlapSameResultsFasterGuard(t *testing.T) {
	// Overlapped guard exchange must not change any coefficient and
	// should reduce the time spent waiting on guards.
	im := image.Landsat(256, 256, 33)
	base := distCfg(8, filter.Daubechies8(), 1)
	overlap := base
	overlap.Overlap = true
	r1, err := DistributedDecompose(im, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DistributedDecompose(im, overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !pyramidsEqual(r1.Pyramid, r2.Pyramid, 0) {
		t.Error("overlap changed coefficients")
	}
	if r2.GuardTime >= r1.GuardTime {
		t.Errorf("overlap guard time %g not below blocking %g", r2.GuardTime, r1.GuardTime)
	}
	if r2.Sim.Elapsed > r1.Sim.Elapsed+1e-12 {
		t.Errorf("overlap elapsed %g worse than blocking %g", r2.Sim.Elapsed, r1.Sim.Elapsed)
	}
}

func TestOverlapAllPaperConfigsCorrect(t *testing.T) {
	im := image.Landsat(128, 128, 34)
	for _, cfg := range PaperConfigs() {
		seq, _ := wavelet.Decompose(im, cfg.Bank, filter.Periodic, cfg.Levels)
		dc := distCfg(4, cfg.Bank, cfg.Levels)
		dc.Overlap = true
		res, err := DistributedDecompose(im, dc)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
			t.Errorf("%s: overlapped distributed != sequential", cfg.Label)
		}
	}
}

func TestT3DWaveletCrossCheck(t *testing.T) {
	// The wavelet paper never ran on the T3D; cross-check the simulator
	// generalizes: the T3D finishes the decomposition faster in absolute
	// terms, remains communication-limited (speedups of the same modest
	// magnitude as the Paragon's, not proportionally better), and
	// computes identical coefficients on the torus placement.
	im := image.Landsat(256, 256, 44)
	cfg := PaperConfigs()[0]
	paragonCurve, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, cfg, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	t3d := mesh.T3D()
	t3dCurve, err := RunScaling(im, t3d, mesh.LinearPlacement{M: t3d}, cfg, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if t3dCurve.Points[0].Elapsed >= paragonCurve.Points[0].Elapsed {
		t.Errorf("T3D (%g s) not faster than Paragon (%g s) in absolute time",
			t3dCurve.Points[0].Elapsed, paragonCurve.Points[0].Elapsed)
	}
	ratio := t3dCurve.Points[0].Speedup / paragonCurve.Points[0].Speedup
	if ratio > 1.3 || ratio < 0.6 {
		t.Errorf("T3D speedup %g not of the Paragon's magnitude (%g): both should be comm-limited",
			t3dCurve.Points[0].Speedup, paragonCurve.Points[0].Speedup)
	}
	// Data correctness on the torus machine.
	res, err := DistributedDecompose(im, DistConfig{
		Machine: t3d, Placement: mesh.LinearPlacement{M: t3d},
		Procs: 16, Bank: cfg.Bank, Levels: cfg.Levels,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := wavelet.Decompose(im, cfg.Bank, filter.Periodic, cfg.Levels)
	if !pyramidsEqual(seq, res.Pyramid, 1e-9) {
		t.Error("T3D-simulated decomposition diverges")
	}
}

func TestSerialTimeZeroForNoLevels(t *testing.T) {
	if got := SerialTime(mesh.Paragon(), 512, 512, 8, 0); got != 0 {
		t.Errorf("zero-level serial time = %g", got)
	}
}

func TestImageFromFlatPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on size mismatch")
		}
	}()
	imageFromFlat(2, 3, make([]float64, 5))
}

func TestPaperConfigsStable(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 3 {
		t.Fatalf("%d configs", len(cfgs))
	}
	wantLabels := []string{"F8/L1", "F4/L2", "F2/L4"}
	wantLens := []int{8, 4, 2}
	wantLevels := []int{1, 2, 4}
	for i, cfg := range cfgs {
		if cfg.Label != wantLabels[i] || cfg.Bank.Len() != wantLens[i] || cfg.Levels != wantLevels[i] {
			t.Errorf("config %d = %s/%d taps/%d levels", i, cfg.Label, cfg.Bank.Len(), cfg.Levels)
		}
	}
}

func TestBlockGuardTimeTracked(t *testing.T) {
	im := image.Landsat(128, 128, 50)
	res, err := BlockDecompose(im, distCfg(4, filter.Daubechies4(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardTime <= 0 {
		t.Error("block decomposition recorded no guard time")
	}
	// Two exchanges per level means guard time at least comparable to
	// the striped version's single exchange.
	striped, err := DistributedDecompose(im, distCfg(4, filter.Daubechies4(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Msgs <= striped.Sim.Msgs {
		t.Error("block used no more messages than striped")
	}
}

func TestScalingCurveCSV(t *testing.T) {
	im := image.Landsat(128, 128, 51)
	curve, err := RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, PaperConfigs()[0], []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := curve.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "config,placement,procs") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "F8/L1,snake,1,") {
		t.Errorf("row = %q", lines[1])
	}
	if got := curve.CSVName("paragon"); got != "paragon_f8l1_snake" {
		t.Errorf("CSVName = %q", got)
	}
}

func TestTable1CSV(t *testing.T) {
	rows := []Table1Row{{Machine: "MasPar MP-2 (16K)", Seconds: [3]float64{0.0169, 0.0138, 0.0123}}}
	var buf strings.Builder
	if err := WriteTable1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "machine,f8l1_s") || !strings.Contains(out, "0.0169") {
		t.Errorf("CSV = %q", out)
	}
}
