package linalg

import "fmt"

// Mat is a dense row-major matrix of F values.
type Mat[F Float] struct {
	Rows, Cols int
	Data       []F // len == Rows*Cols, row-major
}

// Matrix is the float64 matrix used throughout the full-precision
// modeling path. It is an alias for Mat[float64], so existing struct
// literals, field accesses and method calls keep working unchanged.
type Matrix = Mat[float64]

// Matrix32 is the float32 matrix of the reduced-precision fast path.
type Matrix32 = Mat[float32]

// NewMat returns a zero matrix of the given element type and dimensions.
func NewMat[F Float](rows, cols int) *Mat[F] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimensions %dx%d", rows, cols))
	}
	return &Mat[F]{Rows: rows, Cols: cols, Data: make([]F, rows*cols)}
}

// NewMatrix returns a zero float64 matrix with the given dimensions.
func NewMatrix(rows, cols int) *Matrix { return NewMat[float64](rows, cols) }

// NewMatrix32 returns a zero float32 matrix with the given dimensions.
func NewMatrix32(rows, cols int) *Matrix32 { return NewMat[float32](rows, cols) }

// Narrow returns the float32 narrowing of m: one rounding per element, the
// single precision loss of the reduced-precision tier.
func Narrow(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = float32(x)
	}
	return out
}

// NewMatrixFromRows builds a matrix whose rows are copies of the given
// vectors. All rows must have equal length.
func NewMatrixFromRows[F Float](rows []Vec[F]) (*Mat[F], error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	cols := len(rows[0])
	m := NewMat[F](len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// RowViews returns all rows of m as vectors aliasing the matrix storage —
// the compatibility bridge between the flat row-major data path and the
// []Vector APIs. Mutating a returned vector mutates the matrix.
func (m *Mat[F]) RowViews() []Vec[F] {
	out := make([]Vec[F], m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// RowsMatrix returns a matrix whose rows are the given equal-length
// vectors. When the rows already lie contiguously in one row-major buffer —
// as the row views of a Mat do — the returned matrix aliases their
// storage without copying, which is how the blocked distance kernels pick
// up a pipeline.Dataset's flat backing for free; otherwise the rows are
// packed into a fresh buffer. Callers must treat an aliased result as
// read-only unless they own the backing rows.
func RowsMatrix[F Float](rows []Vec[F]) (*Mat[F], error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	cols := len(rows[0])
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimensionMismatch, i, len(r), cols)
		}
	}
	if contiguousRows(rows, cols) {
		return &Mat[F]{Rows: len(rows), Cols: cols, Data: rows[0][:len(rows)*cols]}, nil
	}
	return NewMatrixFromRows(rows)
}

// contiguousRows reports whether the rows occupy one row-major buffer:
// every row must be followed immediately by the next one in memory, which
// the capacity of a mid-matrix row view exposes without unsafe.
func contiguousRows[F Float](rows []Vec[F], cols int) bool {
	if cols == 0 {
		return false
	}
	for i := 0; i+1 < len(rows); i++ {
		r := rows[i]
		if cap(r) <= cols || &r[:cols+1][cols] != &rows[i+1][0] {
			return false
		}
	}
	return cap(rows[0]) >= len(rows)*cols
}

// At returns the element at row i, column j.
func (m *Mat[F]) At(i, j int) F { return m.Data[i*m.Cols+j] }

// Row returns row i as a vector that aliases the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Mat[F]) Row(i int) Vec[F] { return Vec[F](m.Data[i*m.Cols : (i+1)*m.Cols]) }

// RowCopy returns a copy of row i.
func (m *Mat[F]) RowCopy(i int) Vec[F] { return m.Row(i).Clone() }

// MulVec returns m · v.
func (m *Mat[F]) MulVec(v Vec[F]) (Vec[F], error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: matrix %dx%d times vector %d", ErrDimensionMismatch, m.Rows, m.Cols, len(v))
	}
	out := make(Vec[F], m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s F
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// TransposeInto writes mᵀ into dst, which must be Cols×Rows and must not
// share storage with m. It allows iterative algorithms to reuse one
// transpose buffer across iterations.
func (m *Mat[F]) TransposeInto(dst *Mat[F]) error {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		return fmt.Errorf("%w: transpose of %dx%d into %dx%d", ErrDimensionMismatch, m.Rows, m.Cols, dst.Rows, dst.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst.Data[j*dst.Cols+i] = x
		}
	}
	return nil
}

// MulInto writes m · other into dst, which must be Rows×other.Cols and must
// not share storage with m or other, so iterative algorithms can reuse one
// product buffer across iterations.
func (m *Mat[F]) MulInto(dst, other *Mat[F]) error {
	if m.Cols != other.Rows {
		return fmt.Errorf("%w: %dx%d times %dx%d", ErrDimensionMismatch, m.Rows, m.Cols, other.Rows, other.Cols)
	}
	if dst.Rows != m.Rows || dst.Cols != other.Cols {
		return fmt.Errorf("%w: product %dx%d into %dx%d", ErrDimensionMismatch, m.Rows, other.Cols, dst.Rows, dst.Cols)
	}
	mulRows(dst, m, other, 0, m.Rows)
	return nil
}

// mulRows is the shared micro-kernel of MulInto and ParallelMulIntoCtx: it
// computes output rows [lo, hi) of dst = m · other. The interior runs four
// output rows at a time with a fused inner loop, so each row of `other` is
// loaded once per four accumulator rows instead of once per row — the
// register-tiled upgrade over the plain axpy kernel. Every output entry
// still accumulates over k in ascending order, so the parallel scheduler
// (which hands out 16-row blocks, a multiple of the 4-row unroll) produces
// bit-identical results for any worker count.
func mulRows[F Float](dst, m, other *Mat[F], lo, hi int) {
	kDim, n := m.Cols, other.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		out0 := dst.Data[(i+0)*n : (i+1)*n]
		out1 := dst.Data[(i+1)*n : (i+2)*n]
		out2 := dst.Data[(i+2)*n : (i+3)*n]
		out3 := dst.Data[(i+3)*n : (i+4)*n]
		for j := range out0 {
			out0[j], out1[j], out2[j], out3[j] = 0, 0, 0, 0
		}
		for k := 0; k < kDim; k++ {
			a0 := m.Data[(i+0)*kDim+k]
			a1 := m.Data[(i+1)*kDim+k]
			a2 := m.Data[(i+2)*kDim+k]
			a3 := m.Data[(i+3)*kDim+k]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			row := other.Data[k*n : (k+1)*n]
			for j, x := range row {
				out0[j] += a0 * x
				out1[j] += a1 * x
				out2[j] += a2 * x
				out3[j] += a3 * x
			}
		}
	}
	for ; i < hi; i++ {
		out := dst.Data[i*n : (i+1)*n]
		for j := range out {
			out[j] = 0
		}
		for k := 0; k < kDim; k++ {
			a := m.Data[i*kDim+k]
			if a == 0 {
				continue
			}
			row := other.Data[k*n : (k+1)*n]
			for j, x := range row {
				out[j] += a * x
			}
		}
	}
}
