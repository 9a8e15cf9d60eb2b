package simd

import (
	"math"
	"testing"
)

func mustLayout(t *testing.T, virt Virtualization, n int) *Layout {
	t.Helper()
	l, err := NewLayout(MP2(), virt, n)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(MP2(), Hierarchical, 100); err == nil {
		t.Error("non-multiple side accepted")
	}
	if _, err := NewLayout(MP2(), Hierarchical, 64); err == nil {
		t.Error("side smaller than grid accepted")
	}
	if _, err := NewLayout(MP2(), Hierarchical, 512); err != nil {
		t.Errorf("512 rejected: %v", err)
	}
}

func TestHierarchicalOwnership(t *testing.T) {
	l := mustLayout(t, Hierarchical, 512) // 4x4 pixels per PE
	// Pixels 0..3 of a row are all on PE column 0.
	for c := 0; c < 4; c++ {
		if px, _ := l.OwnerPE(0, c); px != 0 {
			t.Errorf("col %d owned by PE column %d", c, px)
		}
	}
	if px, _ := l.OwnerPE(0, 4); px != 1 {
		t.Error("col 4 not on PE column 1")
	}
}

func TestCutAndStackOwnership(t *testing.T) {
	l := mustLayout(t, CutAndStack, 512)
	// Adjacent logical pixels are always on adjacent PEs.
	p0, _ := l.OwnerPE(0, 0)
	p1, _ := l.OwnerPE(0, 1)
	if p0 == p1 {
		t.Error("cut-and-stack put adjacent pixels on the same PE")
	}
	// Column 128 wraps to PE column 0 (next layer).
	if px, _ := l.OwnerPE(0, 128); px != 0 {
		t.Error("layer wrap broken")
	}
}

func TestCrossingFractions(t *testing.T) {
	hier := mustLayout(t, Hierarchical, 512)
	cut := mustLayout(t, CutAndStack, 512)
	// Hierarchical with 4 pixels per PE per dimension: a distance-1
	// shift crosses for exactly 1/4 of pixels.
	if f := hier.CrossingFraction(1); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("hierarchical crossing fraction %g, want 0.25", f)
	}
	// Cut-and-stack: every distance-1 shift crosses a PE boundary.
	if f := cut.CrossingFraction(1); f != 1 {
		t.Errorf("cut-and-stack crossing fraction %g, want 1", f)
	}
	// Zero shift crosses nothing.
	if hier.RowShiftCrossings(0) != 0 {
		t.Error("zero shift crossed boundaries")
	}
	// Shift by a full PE-subimage width crosses everything even under
	// hierarchical layout.
	if f := hier.CrossingFraction(4); f != 1 {
		t.Errorf("full-block shift fraction %g, want 1", f)
	}
}

func TestCrossingPeriodicity(t *testing.T) {
	l := mustLayout(t, Hierarchical, 512)
	if l.RowShiftCrossings(3) != l.RowShiftCrossings(3+512) {
		t.Error("crossings not periodic in the image size")
	}
	if l.RowShiftCrossings(-1) != l.RowShiftCrossings(511) {
		t.Error("negative shifts not normalized")
	}
}

func TestMeasuredShiftCheaperHierarchical(t *testing.T) {
	hier := mustLayout(t, Hierarchical, 512)
	cut := mustLayout(t, CutAndStack, 512)
	if hier.MeasuredShiftCycles(1) >= cut.MeasuredShiftCycles(1) {
		t.Errorf("hierarchical shift (%g cycles) not cheaper than cut-and-stack (%g)",
			hier.MeasuredShiftCycles(1), cut.MeasuredShiftCycles(1))
	}
}

func TestMeasuredDecomposeTimeAgreesWithModel(t *testing.T) {
	// The measured-crossing price should land in the same range as the
	// closed-form model for the calibrated configuration and preserve
	// the hierarchical < cut-and-stack ordering.
	m := MP2()
	for _, virt := range []Virtualization{Hierarchical, CutAndStack} {
		l := mustLayout(t, virt, 512)
		measured, err := l.MeasuredDecomposeTime(Systolic, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		model, err := m.DecomposeTime(Systolic, virt, 512, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if measured < model*0.5 || measured > model*2 {
			t.Errorf("%v: measured %g vs model %g diverge > 2x", virt, measured, model)
		}
	}
	h := mustLayout(t, Hierarchical, 512)
	c := mustLayout(t, CutAndStack, 512)
	th, _ := h.MeasuredDecomposeTime(Systolic, 8, 1)
	tc, _ := c.MeasuredDecomposeTime(Systolic, 8, 1)
	if th >= tc {
		t.Errorf("measured: hierarchical %g >= cut-and-stack %g", th, tc)
	}
}

func TestMeasuredDecomposeValidation(t *testing.T) {
	l := mustLayout(t, Hierarchical, 512)
	if _, err := l.MeasuredDecomposeTime(Systolic, 8, 0); err == nil {
		t.Error("levels=0 accepted")
	}
	if _, err := l.MeasuredDecomposeTime(Systolic, 8, 30); err == nil {
		t.Error("absurd depth accepted")
	}
	// 1<<levels wraps at the word size; the check must refuse, not
	// divide by it.
	for _, levels := range []int{62, 63, 64, 65} {
		if _, err := l.MeasuredDecomposeTime(Systolic, 8, levels); err == nil {
			t.Errorf("levels=%d accepted", levels)
		}
	}
}

func TestDilutionMeasuredShiftGrowsWithLevel(t *testing.T) {
	l := mustLayout(t, Hierarchical, 512)
	if l.MeasuredShiftCycles(8) <= l.MeasuredShiftCycles(1) {
		t.Error("long diluted shifts not more expensive")
	}
}
