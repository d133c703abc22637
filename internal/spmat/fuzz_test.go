package spmat

import "testing"

// FuzzTransposeRoundTrip checks Transpose∘Transpose is the identity on
// arbitrary fuzz-assembled matrices — exact equality of the pattern and
// values, since both passes reproduce row-major entry order — and that
// the cached T agrees with a fresh Transpose.
func FuzzTransposeRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint16(4), []byte{0, 1, 16, 2, 3, 200, 0, 1, 16})
	f.Add(uint16(1), uint16(1), []byte{0, 0, 1})
	f.Add(uint16(200), uint16(7), []byte{})
	f.Fuzz(func(t *testing.T, r16, c16 uint16, data []byte) {
		r := int(r16%300) + 1
		c := int(c16%300) + 1
		tr := NewTriplet(r, c)
		for len(data) >= 3 {
			i := int(data[0]) % r
			j := int(data[1]) % c
			v := float64(int8(data[2])) / 16
			tr.Add(i, j, v)
			data = data[3:]
		}
		m := tr.ToCSR()
		rt := m.Transpose().Transpose()
		rr, rc := rt.Dims()
		if rr != r || rc != c || rt.NNZ() != m.NNZ() {
			t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
				r, c, m.NNZ(), rr, rc, rt.NNZ())
		}
		for i := 0; i <= r; i++ {
			if m.rowPtr[i] != rt.rowPtr[i] {
				t.Fatalf("rowPtr[%d]: %d vs %d", i, m.rowPtr[i], rt.rowPtr[i])
			}
		}
		for k := range m.val {
			if m.colIdx[k] != rt.colIdx[k] || m.val[k] != rt.val[k] {
				t.Fatalf("entry %d: (%d,%g) vs (%d,%g)",
					k, m.colIdx[k], m.val[k], rt.colIdx[k], rt.val[k])
			}
		}
		cached := m.T()
		fresh := m.Transpose()
		for k := range fresh.val {
			if cached.colIdx[k] != fresh.colIdx[k] || cached.val[k] != fresh.val[k] {
				t.Fatalf("cached transpose diverges at entry %d", k)
			}
		}
	})
}
