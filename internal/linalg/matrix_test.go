package linalg

import (
	"errors"
	"testing"
)

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([]Vector{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatalf("NewMatrixFromRows: %v", err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g, want 6", m.At(1, 2))
	}
	if _, err := NewMatrixFromRows[float64](nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty rows: got %v, want ErrEmpty", err)
	}
	if _, err := NewMatrixFromRows([]Vector{{1}, {1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows: got %v, want ErrDimensionMismatch", err)
	}
}

func TestMatrixRowColAliasing(t *testing.T) {
	m, _ := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 99 {
		t.Error("Row should alias matrix storage")
	}
	rc := m.RowCopy(1)
	rc[0] = -1
	if m.At(1, 0) != 3 {
		t.Error("RowCopy should not alias matrix storage")
	}
	if rows := m.RowViews(); &rows[1][0] != &m.Data[2] {
		t.Error("RowViews should alias matrix storage")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m, _ := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}})
	out, err := m.MulVec(Vector{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if out[0] != 3 || out[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", out)
	}
	if _, err := m.MulVec(Vector{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MulVec mismatch: got %v", err)
	}
}

func TestMatrixMulAndTranspose(t *testing.T) {
	a, _ := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([]Vector{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	if err := a.MulInto(c, b); err != nil {
		t.Fatalf("MulInto: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("MulInto(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	at := NewMatrix(2, 2)
	if err := a.TransposeInto(at); err != nil {
		t.Fatalf("TransposeInto: %v", err)
	}
	if at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Errorf("TransposeInto wrong: %v", at.Data)
	}
	bad, _ := NewMatrixFromRows([]Vector{{1, 2, 3}})
	if err := a.MulInto(c, bad); !errors.Is(err, ErrDimensionMismatch) {
		// a is 2x2, bad is 1x3 → incompatible
		t.Errorf("MulInto with incompatible dims: got %v", err)
	}
	if err := bad.TransposeInto(at); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("TransposeInto a 1x3 into 2x2: got %v", err)
	}
}
