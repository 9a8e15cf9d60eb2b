package wavelethpc

// One benchmark per table and figure of the paper and its companion
// appendices. Each bench runs the real regeneration code and reports the
// artifact's headline numbers as custom metrics (speedups, simulated
// seconds), so `go test -bench=. -benchmem` reproduces the entire
// evaluation; cmd/exptables prints the full text tables.

import (
	"context"
	"fmt"
	"testing"

	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/nbody"
	"wavelethpc/internal/oracle"
	"wavelethpc/internal/pic"
	"wavelethpc/internal/registration"
	"wavelethpc/internal/simd"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/workload"
)

// ---------------------------------------------------------------------------
// Appendix A — Table 1
// ---------------------------------------------------------------------------

// BenchmarkTable1MasPar regenerates the MasPar MP-2 row of Table 1 via
// the calibrated cycle model.
func BenchmarkTable1MasPar(b *testing.B) {
	var row [3]float64
	for i := 0; i < b.N; i++ {
		row = simd.Table1MasPar()
	}
	b.ReportMetric(row[0], "F8L1-s")
	b.ReportMetric(row[1], "F4L2-s")
	b.ReportMetric(row[2], "F2L4-s")
}

// BenchmarkTable1ParagonSerial regenerates the Paragon 1-processor row.
func BenchmarkTable1ParagonSerial(b *testing.B) {
	m := mesh.Paragon()
	var t8, t4, t2 float64
	for i := 0; i < b.N; i++ {
		t8 = core.SerialTime(m, 512, 512, 8, 1)
		t4 = core.SerialTime(m, 512, 512, 4, 2)
		t2 = core.SerialTime(m, 512, 512, 2, 4)
	}
	b.ReportMetric(t8, "F8L1-s")
	b.ReportMetric(t4, "F4L2-s")
	b.ReportMetric(t2, "F2L4-s")
}

// BenchmarkTable1DEC5000 regenerates the workstation row.
func BenchmarkTable1DEC5000(b *testing.B) {
	m := mesh.DEC5000()
	var t8, t4, t2 float64
	for i := 0; i < b.N; i++ {
		t8 = core.SerialTime(m, 512, 512, 8, 1)
		t4 = core.SerialTime(m, 512, 512, 4, 2)
		t2 = core.SerialTime(m, 512, 512, 2, 4)
	}
	b.ReportMetric(t8, "F8L1-s")
	b.ReportMetric(t4, "F4L2-s")
	b.ReportMetric(t2, "F2L4-s")
}

// BenchmarkTable1Paragon32 regenerates the Paragon 32-processor row (the
// simulated distributed runs behind Table 1's last machine line).
func BenchmarkTable1Paragon32(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	var secs [3]float64
	for i := 0; i < b.N; i++ {
		for c, cfg := range core.PaperConfigs() {
			res, err := core.DistributedDecompose(im, core.DistConfig{
				Machine:   mesh.Paragon(),
				Placement: mesh.SnakePlacement{Width: 4},
				Procs:     32,
				Bank:      cfg.Bank,
				Levels:    cfg.Levels,
			})
			if err != nil {
				b.Fatal(err)
			}
			secs[c] = res.Sim.Elapsed
		}
	}
	b.ReportMetric(secs[0], "F8L1-s")
	b.ReportMetric(secs[1], "F4L2-s")
	b.ReportMetric(secs[2], "F2L4-s")
}

// ---------------------------------------------------------------------------
// Appendix A — Figures 5-7: Paragon scaling curves
// ---------------------------------------------------------------------------

func benchParagonFigure(b *testing.B, cfgIdx int) {
	im := image.Landsat(512, 512, 42)
	cfg := core.PaperConfigs()[cfgIdx]
	procs := []int{1, 4, 32}
	var snake, naive *core.ScalingCurve
	for i := 0; i < b.N; i++ {
		var err error
		snake, err = core.RunScaling(im, mesh.Paragon(), mesh.SnakePlacement{Width: 4}, cfg, procs)
		if err != nil {
			b.Fatal(err)
		}
		naive, err = core.RunScaling(im, mesh.Paragon(), mesh.NaivePlacement{Width: 4}, cfg, procs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(snake.Points[1].Speedup, "snake-speedup-P4")
	b.ReportMetric(snake.Points[2].Speedup, "snake-speedup-P32")
	b.ReportMetric(naive.Points[2].Speedup, "naive-speedup-P32")
	b.ReportMetric(float64(naive.Points[2].Contended), "naive-conflicts-P32")
	b.ReportMetric(float64(snake.Points[2].Contended), "snake-conflicts-P32")
}

// BenchmarkFig5ParagonF8L1 regenerates Figure 5 (filter size 8, 1 level).
func BenchmarkFig5ParagonF8L1(b *testing.B) { benchParagonFigure(b, 0) }

// BenchmarkFig6ParagonF4L2 regenerates Figure 6 (filter size 4, 2 levels).
func BenchmarkFig6ParagonF4L2(b *testing.B) { benchParagonFigure(b, 1) }

// BenchmarkFig7ParagonF2L4 regenerates Figure 7 (filter size 2, 4 levels).
func BenchmarkFig7ParagonF2L4(b *testing.B) { benchParagonFigure(b, 2) }

// ---------------------------------------------------------------------------
// Appendix A — Section 4 ablations
// ---------------------------------------------------------------------------

// BenchmarkMasParAblation compares the systolic and dilution algorithms
// on the MP-2 (the [El-Ghaz94]/[Chan95] design choice).
func BenchmarkMasParAblation(b *testing.B) {
	m := simd.MP2()
	var sys, dil float64
	for i := 0; i < b.N; i++ {
		var err error
		if sys, err = m.DecomposeTime(simd.Systolic, simd.Hierarchical, 512, 8, 1); err != nil {
			b.Fatal(err)
		}
		if dil, err = m.DecomposeTime(simd.Dilution, simd.Hierarchical, 512, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sys, "systolic-s")
	b.ReportMetric(dil, "dilution-s")
}

// BenchmarkVirtualization compares cut-and-stack against hierarchical
// virtualization (the paper: hierarchical wins on locality).
func BenchmarkVirtualization(b *testing.B) {
	m := simd.MP2()
	var hier, cut float64
	for i := 0; i < b.N; i++ {
		var err error
		if hier, err = m.DecomposeTime(simd.Systolic, simd.Hierarchical, 512, 8, 1); err != nil {
			b.Fatal(err)
		}
		if cut, err = m.DecomposeTime(simd.Systolic, simd.CutAndStack, 512, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hier, "hierarchical-s")
	b.ReportMetric(cut, "cut-and-stack-s")
}

// BenchmarkStripedVsBlock compares the paper's striped decomposition
// against the block alternative of Figure 3 (transaction counts and
// elapsed time at 8 processors).
func BenchmarkStripedVsBlock(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	cfg := core.DistConfig{
		Machine:   mesh.Paragon(),
		Placement: mesh.SnakePlacement{Width: 4},
		Procs:     8,
		Bank:      filter.Daubechies4(),
		Levels:    2,
	}
	var striped, block *core.DistResult
	for i := 0; i < b.N; i++ {
		var err error
		if striped, err = core.DistributedDecompose(im, cfg); err != nil {
			b.Fatal(err)
		}
		if block, err = core.BlockDecompose(im, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(striped.Sim.Elapsed, "striped-s")
	b.ReportMetric(block.Sim.Elapsed, "block-s")
	b.ReportMetric(float64(striped.Sim.Msgs), "striped-msgs")
	b.ReportMetric(float64(block.Sim.Msgs), "block-msgs")
}

// BenchmarkSequentialDecompose measures the real Go sequential transform
// (the modern "workstation row").
func BenchmarkSequentialDecompose(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	bank := filter.Daubechies8()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Decompose(im, bank, filter.Periodic, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelDecompose measures the real shared-memory parallel
// transform at several worker counts.
func BenchmarkParallelDecompose(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	bank := filter.Daubechies8()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelDecomposeTol(im, bank, filter.Periodic, 1, workers, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSystolicFunctional measures the functional MasPar systolic
// algorithm executing the actual SIMD step sequence.
func BenchmarkSystolicFunctional(b *testing.B) {
	im := image.Landsat(128, 128, 42)
	bank := filter.Daubechies8()
	for i := 0; i < b.N; i++ {
		simd.SystolicAnalyze2D(im, bank)
	}
}

// ---------------------------------------------------------------------------
// Appendix B — N-body (Figures 3-6 and 15-18, serial table rows)
// ---------------------------------------------------------------------------

// BenchmarkNBodySerialTable regenerates the N-body serial rows of
// Appendix B Tables 1-2.
func BenchmarkNBodySerialTable(b *testing.B) {
	var p1k, t1k float64
	for i := 0; i < b.N; i++ {
		var err error
		if p1k, err = nbody.SerialTime("paragon", 1024, 1); err != nil {
			b.Fatal(err)
		}
		if t1k, err = nbody.SerialTime("t3d", 1024, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p1k, "paragon-1K-s")
	b.ReportMetric(t1k, "t3d-1K-s")
}

func benchNBodyScaling(b *testing.B, machine string, bodies int) {
	var res []nbody.ScalingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = nbody.RunScaling(machine, bodies, []int{1, 8, 32}, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[1].Speedup, "speedup-P8")
	b.ReportMetric(res[2].Speedup, "speedup-P32")
	b.ReportMetric(res[2].Budget.CommPct, "comm-pct-P32")
	b.ReportMetric(res[2].Budget.ImbalancePct, "imbalance-pct-P32")
}

// BenchmarkFig3NBodyScalability1K regenerates the 1K-body Paragon curve
// of Figure 3 with the Figure 4 budget metrics.
func BenchmarkFig3NBodyScalability1K(b *testing.B) { benchNBodyScaling(b, "paragon", 1024) }

// BenchmarkFig3NBodyScalability4K regenerates the 4K-body curve
// (Figure 5 budget).
func BenchmarkFig3NBodyScalability4K(b *testing.B) { benchNBodyScaling(b, "paragon", 4096) }

// BenchmarkFig3NBodyScalability32K regenerates the 32K-body curve
// (Figure 6 budget).
func BenchmarkFig3NBodyScalability32K(b *testing.B) {
	if testing.Short() {
		b.Skip("32K bodies in -short mode")
	}
	benchNBodyScaling(b, "paragon", 32768)
}

// BenchmarkFig15NBodyT3D regenerates the T3D N-body scalability of
// Figures 15-18.
func BenchmarkFig15NBodyT3D(b *testing.B) { benchNBodyScaling(b, "t3d", 4096) }

// ---------------------------------------------------------------------------
// Appendix B — PIC (Figures 7-14 and 19-25, serial table rows)
// ---------------------------------------------------------------------------

// BenchmarkPICSerialTable regenerates the PIC serial rows of Tables 1-2.
func BenchmarkPICSerialTable(b *testing.B) {
	var p256, t256 float64
	for i := 0; i < b.N; i++ {
		var err error
		if p256, err = pic.SerialTime("paragon", 256<<10, 32, false); err != nil {
			b.Fatal(err)
		}
		if t256, err = pic.SerialTime("t3d", 256<<10, 32, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p256, "paragon-256K-m32-s")
	b.ReportMetric(t256, "t3d-256K-m32-s")
}

func benchPICScaling(b *testing.B, machine string, particles, grid int) {
	var res []pic.ScalingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pic.RunScaling(machine, particles, grid, []int{1, 8, 32}, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[1].Speedup, "speedup-P8")
	b.ReportMetric(res[2].Speedup, "speedup-P32")
	b.ReportMetric(res[2].Budget.CommPct, "comm-pct-P32")
	b.ReportMetric(res[2].MaxComm, "max-comm-s-P32")
	b.ReportMetric(res[2].AvgComm, "avg-comm-s-P32")
}

// BenchmarkFig7PICParagonM32 regenerates the Figure 7 curve (m=32) plus
// the Figure 10 communication-balance and Figures 11-12 budget metrics.
func BenchmarkFig7PICParagonM32(b *testing.B) { benchPICScaling(b, "paragon", 256<<10, 32) }

// BenchmarkFig8PICParagonM64 regenerates the Figure 8 curve (m=64) plus
// the Figures 13-14 budget metrics.
func BenchmarkFig8PICParagonM64(b *testing.B) {
	if testing.Short() {
		b.Skip("m=64 grid in -short mode")
	}
	benchPICScaling(b, "paragon", 256<<10, 64)
}

// BenchmarkFig9PICSuperlinearPaging regenerates the Figure 9 effect: the
// paged uniprocessor baseline makes large-particle speedups superlinear.
func BenchmarkFig9PICSuperlinearPaging(b *testing.B) {
	var inMem, paged float64
	for i := 0; i < b.N; i++ {
		var err error
		if inMem, err = pic.SerialTime("paragon", 1<<20, 32, false); err != nil {
			b.Fatal(err)
		}
		if paged, err = pic.SerialTime("paragon", 1<<20, 32, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(inMem, "extrapolated-s")
	b.ReportMetric(paged, "paged-s")
	b.ReportMetric(paged/inMem, "superlinear-factor")
}

// BenchmarkFig19PICT3DM32 regenerates the T3D PIC scalability of Figures
// 19-25.
func BenchmarkFig19PICT3DM32(b *testing.B) { benchPICScaling(b, "t3d", 256<<10, 32) }

// BenchmarkGlobalSumNaive measures the original gssum-style many-to-many
// global sum at 16 processors (the Section 4.2.2 observation).
func BenchmarkGlobalSumNaive(b *testing.B) {
	var naive float64
	for i := 0; i < b.N; i++ {
		var err error
		naive, _, err = pic.GlobalSumComparison("paragon", 65536, 32, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(naive, "per-iter-s")
}

// BenchmarkGlobalSumPrefix measures the parallel-prefix replacement.
func BenchmarkGlobalSumPrefix(b *testing.B) {
	var prefix float64
	for i := 0; i < b.N; i++ {
		var err error
		_, prefix, err = pic.GlobalSumComparison("paragon", 65536, 32, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(prefix, "per-iter-s")
}

// ---------------------------------------------------------------------------
// Appendix C — workload characterization (Tables 1-5, 7-9)
// ---------------------------------------------------------------------------

// BenchmarkTableC7Centroids regenerates the NAS-like centroid table.
func BenchmarkTableC7Centroids(b *testing.B) {
	specs := oracle.NASKernels()
	var embarInt float64
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			c := workload.Centroid(oracle.Schedule(spec.Generate()))
			if spec.Name == "embar" {
				embarInt = c[oracle.IntOp]
			}
		}
	}
	b.ReportMetric(embarInt, "embar-intops")
}

// BenchmarkTableC8Similarity regenerates the pairwise similarity matrix.
func BenchmarkTableC8Similarity(b *testing.B) {
	specs := oracle.NASKernels()
	cents := map[string]oracle.PI{}
	names := make([]string, 0, len(specs))
	for _, spec := range specs {
		cents[spec.Name] = workload.Centroid(oracle.Schedule(spec.Generate()))
		names = append(names, spec.Name)
	}
	var bukCgm float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := workload.SimilarityMatrix(names, cents)
		bukCgm = m[4][2] // buk vs cgm
	}
	b.ReportMetric(bukCgm, "buk-cgm-similarity")
}

// BenchmarkTableC9Smoothability regenerates the smoothability table.
func BenchmarkTableC9Smoothability(b *testing.B) {
	trace := oracle.NASKernels()[0].Generate() // embar
	var sm float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm, _, _, _ = oracle.Smoothability(trace)
	}
	b.ReportMetric(sm, "embar-smoothability")
}

// BenchmarkTableC14ExampleSuite regenerates the example-suite comparison
// of Tables 1, 3, and 4 (matrix vs vector space).
func BenchmarkTableC14ExampleSuite(b *testing.B) {
	suite := oracle.ExampleSuite()
	var frob, vs float64
	for i := 0; i < b.N; i++ {
		frob = workload.FrobeniusDiff(workload.NewMatrix(suite["WL1"]), workload.NewMatrix(suite["WL2"]))
		vs = workload.Similarity(workload.Centroid(suite["WL1"]), workload.Centroid(suite["WL2"]))
	}
	b.ReportMetric(frob, "matrix-WL1-WL2")
	b.ReportMetric(vs, "vector-WL1-WL2")
}

// BenchmarkTableC5RepresentationCost compares the representation costs of
// the two techniques (Table 5): the centroid is O(t) while the matrix
// grows with distinct PIs.
func BenchmarkTableC5RepresentationCost(b *testing.B) {
	pis := oracle.Schedule(oracle.NASKernels()[3].Generate()) // fftpde
	b.Run("centroid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.Centroid(pis)
		}
	})
	b.Run("matrix", func(b *testing.B) {
		var entries int
		for i := 0; i < b.N; i++ {
			entries = workload.NewMatrix(pis).Entries()
		}
		b.ReportMetric(float64(entries), "distinct-PIs")
	})
}

// BenchmarkOracleSchedule measures the oracle scheduler itself.
func BenchmarkOracleSchedule(b *testing.B) {
	trace := oracle.NASKernels()[3].Generate()
	b.SetBytes(int64(len(trace) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.Schedule(trace)
	}
}

// ---------------------------------------------------------------------------
// Extension ablations beyond the paper's headline artifacts
// ---------------------------------------------------------------------------

// BenchmarkDistributedReconstruct regenerates the Figure 2 reverse
// process on the simulated Paragon.
func BenchmarkDistributedReconstruct(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	cfg := core.DistConfig{
		Machine:   mesh.Paragon(),
		Placement: mesh.SnakePlacement{Width: 4},
		Procs:     8,
		Bank:      filter.Daubechies8(),
		Levels:    1,
	}
	pyr, err := wavelet.Decompose(im, cfg.Bank, filter.Periodic, cfg.Levels)
	if err != nil {
		b.Fatal(err)
	}
	var elapsed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sim, err := core.DistributedReconstruct(pyr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		elapsed = sim.Elapsed
	}
	b.ReportMetric(elapsed, "simulated-s")
}

// BenchmarkCostzonesVsORB compares the report's Costzones partitioning
// against Orthogonal Recursive Bisection on balance quality.
func BenchmarkCostzonesVsORB(b *testing.B) {
	bodies := nbody.UniformDisk(8192, 10, 1)
	nbody.Step(bodies, 1e-3)
	var cz, orb nbody.PartitionStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := nbody.Build(bodies)
		tree.ComputeCenters()
		cz = nbody.EvaluatePartition(bodies, tree.Costzones(16))
		orb = nbody.EvaluatePartition(bodies, nbody.ORBPartition(bodies, 16))
	}
	b.ReportMetric(cz.Imbalance, "costzones-imbalance")
	b.ReportMetric(orb.Imbalance, "orb-imbalance")
}

// BenchmarkBHvsDirectCrossover locates where the hierarchical method
// overtakes the naive particle-particle approach on the Paragon model.
func BenchmarkBHvsDirectCrossover(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		var err error
		n, err = nbody.CrossoverSize("paragon", 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "crossover-bodies")
}

// BenchmarkPICTransposeVsGather compares the report's all-to-all
// transpose field solve against full-grid all-gathers.
func BenchmarkPICTransposeVsGather(b *testing.B) {
	run := func(ex pic.FieldExchange) *pic.ParallelResult {
		res, err := pic.ParallelRun(pic.NewUniform(4096, 16, 1), pic.ParallelConfig{
			Machine:   mesh.Paragon(),
			Placement: mesh.SnakePlacement{Width: 4},
			Procs:     8,
			Steps:     1,
			DTMax:     0.1,
			Sum:       pic.PrefixSum,
			Exchange:  ex,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var tr, ga *pic.ParallelResult
	for i := 0; i < b.N; i++ {
		tr = run(pic.TransposeExchange)
		ga = run(pic.GatherExchange)
	}
	b.ReportMetric(tr.PerStep, "transpose-s")
	b.ReportMetric(ga.PerStep, "gather-s")
	b.ReportMetric(float64(tr.Sim.Bytes), "transpose-bytes")
	b.ReportMetric(float64(ga.Sim.Bytes), "gather-bytes")
}

// BenchmarkRegistration measures the coarse-to-fine wavelet registration
// of a 512x512 scene.
func BenchmarkRegistration(b *testing.B) {
	fixed := image.Landsat(512, 512, 42)
	moving := registration.CircularShift(fixed, registration.Shift{DY: 23, DX: -41})
	var evals int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := registration.Register(fixed, moving, registration.Config{})
		if err != nil {
			b.Fatal(err)
		}
		evals = res.Evaluations
	}
	b.ReportMetric(float64(evals), "ssd-evals")
}

// BenchmarkOverlapVsBlockingGuards compares blocking guard exchange
// against the overlapped (IRecv + interior compute) variant the report's
// budget model favors.
func BenchmarkOverlapVsBlockingGuards(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	base := core.DistConfig{
		Machine:   mesh.Paragon(),
		Placement: mesh.SnakePlacement{Width: 4},
		Procs:     16,
		Bank:      filter.Daubechies8(),
		Levels:    1,
	}
	over := base
	over.Overlap = true
	var tBlock, tOver float64
	for i := 0; i < b.N; i++ {
		r1, err := core.DistributedDecompose(im, base)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := core.DistributedDecompose(im, over)
		if err != nil {
			b.Fatal(err)
		}
		tBlock, tOver = r1.GuardTime, r2.GuardTime
	}
	b.ReportMetric(tBlock, "blocking-guard-s")
	b.ReportMetric(tOver, "overlapped-guard-s")
}

// BenchmarkPICReplicateVsTranspose prices the report's Section 5.3
// redundancy-for-communication trade on a small grid.
func BenchmarkPICReplicateVsTranspose(b *testing.B) {
	run := func(ex pic.FieldExchange) float64 {
		res, err := pic.ParallelRun(pic.NewUniform(1024, 8, 19), pic.ParallelConfig{
			Machine:   mesh.Paragon(),
			Placement: mesh.SnakePlacement{Width: 4},
			Procs:     8,
			Steps:     1,
			DTMax:     0.1,
			Sum:       pic.PrefixSum,
			Exchange:  ex,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.PerStep
	}
	var repl, trans float64
	for i := 0; i < b.N; i++ {
		repl = run(pic.ReplicateExchange)
		trans = run(pic.TransposeExchange)
	}
	b.ReportMetric(repl, "replicate-s")
	b.ReportMetric(trans, "transpose-s")
}

// ---------------------------------------------------------------------------
// Fast-path kernel layer (internal/wavelet/kernel)
// ---------------------------------------------------------------------------

// BenchmarkDecompose512 is the headline gate of the kernel layer: a
// 3-level Daubechies-8 periodic decomposition of the 512x512 Landsat
// scene through a steady-state Decomposer. The cache-blocked column
// pass, unrolled row kernels, and reused arena must deliver >= 1.5x over
// BenchmarkDecompose512Reference at ~0 allocs/op (-benchmem).
func BenchmarkDecompose512(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	d := wavelet.NewDecomposer(filter.Daubechies8(), filter.Periodic, 3)
	if _, err := d.Decompose(im); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decompose(im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose512Reference is the pre-kernel baseline: the same
// transform through the stride-N reference path, allocating every
// intermediate.
func BenchmarkDecompose512Reference(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	bank := filter.Daubechies8()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.DecomposeReference(im, bank, filter.Periodic, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose512OneShot measures the allocating dispatch path
// (wavelet.Decompose): fast kernels plus pooled scratch, but freshly
// allocated output bands per call — the cost callers pay when they keep
// the pyramid.
func BenchmarkDecompose512OneShot(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	bank := filter.Daubechies8()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Decompose(im, bank, filter.Periodic, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLifting512 compares the two forward tiers on the same
// 512-square three-level periodic transform through a steady-state
// Decomposer, once on the default convolution tier (tol = 0) and once
// on the lifting tier (tol = the scheme's advertised Eps), both at 0
// allocs/op (-benchmem). With both tiers on AVX2 the lifting tier takes
// about 0.85x the convolution time for rbio4.4 (the CDF 9/7 pair),
// 0.9x for cdf5/3 and 1.0x for db8 (medians of 3 runs on a 2-vCPU
// VM), so it no longer halves the cost as it did against the scalar
// convolution kernels.
func BenchmarkLifting512(b *testing.B) {
	im := image.Landsat(512, 512, 42)
	for _, bc := range []struct{ label, name string }{
		{"cdf53", "cdf5/3"},
		{"rbio44", "rbio4.4"},
		{"db8", "db8"},
	} {
		bank, err := filter.ByName(bc.name)
		if err != nil {
			b.Fatal(err)
		}
		sch := wavelet.LiftingFor(bank, filter.Periodic, 1)
		if sch == nil {
			b.Fatalf("%s: periodic lifting scheme did not resolve", bc.name)
		}
		for _, tier := range []struct {
			name string
			tol  float64
		}{
			{"conv", 0},
			{"lift", sch.Eps},
		} {
			b.Run(bc.label+"/"+tier.name, func(b *testing.B) {
				d := wavelet.NewDecomposerTol(bank, filter.Periodic, 3, tier.tol)
				if _, err := d.Decompose(im); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Decompose(im); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecomposeBatch measures multi-band throughput through the
// worker-pool pipeline.
func BenchmarkDecomposeBatch(b *testing.B) {
	bands := image.LandsatBands(512, 512, 7, 42)
	bank := filter.Daubechies8()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecomposeBatch(context.Background(), bands, bank, filter.Periodic, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// reconSink keeps the inverse benchmarks' results live.
var reconSink *image.Image

// BenchmarkReconstruct512 measures the sequential inverse: a 5-level
// Daubechies-8 periodic reconstruction of the 512x512 Landsat scene
// through the panel-blocked synthesis kernels, whose only sizeable
// allocation is the returned image (-benchmem).
func BenchmarkReconstruct512(b *testing.B) {
	p, err := wavelet.Decompose(image.Landsat(512, 512, 42), filter.Daubechies8(), filter.Periodic, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reconSink = wavelet.Reconstruct(p)
	}
}

// BenchmarkParallelReconstruct2048 measures the worker-pool inverse on
// the scene workload's largest image: a 5-level Daubechies-8 periodic
// reconstruction of a 2048x2048 Landsat scene at 1 and 2 workers.
func BenchmarkParallelReconstruct2048(b *testing.B) {
	p, err := wavelet.Decompose(image.Landsat(2048, 2048, 42), filter.Daubechies8(), filter.Periodic, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reconSink = core.ParallelReconstruct(p, workers)
			}
		})
	}
}

// BenchmarkParallelDecompose2048 measures the worker-pool forward
// transform on the scene workload's largest image: a 5-level
// Daubechies-8 periodic decomposition of a 2048x2048 Landsat scene at 1
// and 2 workers, each level one fused row-and-column sweep.
func BenchmarkParallelDecompose2048(b *testing.B) {
	im := image.Landsat(2048, 2048, 42)
	bank := filter.Daubechies8()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelDecomposeTol(im, bank, filter.Periodic, 5, workers, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
