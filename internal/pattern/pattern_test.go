package pattern

import (
	"reflect"
	"testing"

	"mhafs/internal/trace"
)

func phaseTrace() trace.Trace {
	// Two I/O phases: 4 requests at t≈0, 2 requests at t≈1.
	return trace.Trace{
		{Rank: 0, File: "f", Op: trace.OpRead, Offset: 0, Size: 64, Time: 0.0000},
		{Rank: 1, File: "f", Op: trace.OpRead, Offset: 64, Size: 64, Time: 0.0002},
		{Rank: 2, File: "f", Op: trace.OpRead, Offset: 128, Size: 64, Time: 0.0004},
		{Rank: 3, File: "f", Op: trace.OpRead, Offset: 192, Size: 64, Time: 0.0006},
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 256, Size: 16, Time: 1.0000},
		{Rank: 1, File: "f", Op: trace.OpWrite, Offset: 272, Size: 16, Time: 1.0002},
	}
}

func TestEpochs(t *testing.T) {
	eps := Epochs(phaseTrace(), DefaultEpochWindow)
	if len(eps) != 2 {
		t.Fatalf("epochs = %d, want 2", len(eps))
	}
	if len(eps[0]) != 4 || len(eps[1]) != 2 {
		t.Errorf("epoch sizes = %d,%d, want 4,2", len(eps[0]), len(eps[1]))
	}
}

func TestEpochsEmpty(t *testing.T) {
	if Epochs(nil, 1) != nil {
		t.Error("empty trace should yield nil epochs")
	}
}

func TestEpochsZeroWindow(t *testing.T) {
	tr := trace.Trace{
		{Rank: 0, File: "f", Size: 1, Time: 0.5},
		{Rank: 1, File: "f", Size: 1, Time: 0.5},
		{Rank: 2, File: "f", Size: 1, Time: 0.6},
	}
	eps := Epochs(tr, 0)
	if len(eps) != 2 || len(eps[0]) != 2 || len(eps[1]) != 1 {
		t.Errorf("zero-window epochs wrong: %v", eps)
	}
}

func TestEpochsWindowAnchoredAtStart(t *testing.T) {
	// Times 0, 0.9, 1.8 with window 1: the 0.9 joins the first epoch, but
	// 1.8 is >1 after the epoch START (0), so it opens a new epoch even
	// though it is <1 after 0.9.
	tr := trace.Trace{
		{Rank: 0, File: "f", Size: 1, Time: 0.0},
		{Rank: 1, File: "f", Size: 1, Time: 0.9},
		{Rank: 2, File: "f", Size: 1, Time: 1.8},
	}
	eps := Epochs(tr, 1.0)
	if len(eps) != 2 || len(eps[0]) != 2 {
		t.Errorf("anchored-window epochs wrong: got %d epochs", len(eps))
	}
}

func TestEpochsDoesNotMutateInput(t *testing.T) {
	tr := trace.Trace{
		{Rank: 0, File: "f", Size: 1, Time: 2.0},
		{Rank: 1, File: "f", Size: 1, Time: 1.0},
	}
	Epochs(tr, 0.1)
	if tr[0].Time != 2.0 {
		t.Error("Epochs must not reorder the caller's trace")
	}
}

func TestAnnotate(t *testing.T) {
	ann := Annotate(phaseTrace(), DefaultEpochWindow)
	if len(ann) != 6 {
		t.Fatalf("annotated %d records", len(ann))
	}
	for i := 0; i < 4; i++ {
		if ann[i].Concurrency != 4 || ann[i].Epoch != 0 {
			t.Errorf("record %d: conc=%d epoch=%d, want 4,0", i, ann[i].Concurrency, ann[i].Epoch)
		}
	}
	for i := 4; i < 6; i++ {
		if ann[i].Concurrency != 2 || ann[i].Epoch != 1 {
			t.Errorf("record %d: conc=%d epoch=%d, want 2,1", i, ann[i].Concurrency, ann[i].Epoch)
		}
	}
}

func TestAnnotatePreservesOrder(t *testing.T) {
	tr := phaseTrace()
	// Shuffle: put a late record first.
	tr[0], tr[4] = tr[4], tr[0]
	ann := Annotate(tr, DefaultEpochWindow)
	for i := range tr {
		if ann[i].Record != tr[i] {
			t.Fatalf("record %d reordered", i)
		}
	}
}

func TestAnnotateEmpty(t *testing.T) {
	if Annotate(nil, 1) != nil {
		t.Error("empty trace should annotate to nil")
	}
}

func TestPoints(t *testing.T) {
	ann := Annotate(phaseTrace(), DefaultEpochWindow)
	pts := Points(ann)
	if pts[0] != (Point{X: 64, Y: 4}) {
		t.Errorf("point 0 = %+v", pts[0])
	}
	if pts[5] != (Point{X: 16, Y: 2}) {
		t.Errorf("point 5 = %+v", pts[5])
	}
}

func TestSizeHistogram(t *testing.T) {
	h := SizeHistogram(phaseTrace())
	want := []SizeCount{{16, 2}, {64, 4}}
	if !reflect.DeepEqual(h, want) {
		t.Errorf("histogram = %v, want %v", h, want)
	}
}
