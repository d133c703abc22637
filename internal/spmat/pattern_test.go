package spmat

import (
	"bytes"
	"strings"
	"testing"
)

func TestPatternDiagonal(t *testing.T) {
	m := Identity(8)
	p := m.Pattern(8, 8)
	lines := strings.Split(strings.TrimRight(p, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines", len(lines))
	}
	for i, l := range lines {
		for j, ch := range l {
			want := byte('.')
			if i == j {
				want = '#'
			}
			if byte(ch) != want {
				t.Fatalf("cell (%d,%d) = %c, want %c", i, j, ch, want)
			}
		}
	}
}

func TestPatternCoarsening(t *testing.T) {
	// 100x100 diagonal coarsened to 10x10 must still be diagonal.
	m := Identity(100)
	p := m.Pattern(10, 10)
	lines := strings.Split(strings.TrimRight(p, "\n"), "\n")
	for i, l := range lines {
		if l[i] != '#' {
			t.Fatalf("row %d: diagonal cell missing: %q", i, l)
		}
		if strings.Count(l, "#") != 1 {
			t.Fatalf("row %d has off-diagonal marks: %q", i, l)
		}
	}
}

func TestPatternClampsToDims(t *testing.T) {
	m := Identity(3)
	p := m.Pattern(100, 100) // larger than matrix: clamp to 3x3
	lines := strings.Split(strings.TrimRight(p, "\n"), "\n")
	if len(lines) != 3 || len(lines[0]) != 3 {
		t.Fatalf("pattern not clamped: %dx%d", len(lines), len(lines[0]))
	}
}

func TestWritePGM(t *testing.T) {
	var buf bytes.Buffer
	m := Identity(4)
	if err := m.WritePGM(&buf, 4, 4); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P2\n4 4\n255\n") {
		t.Fatalf("bad PGM header: %q", s[:20])
	}
	if strings.Count(s, "0") < 4 {
		t.Error("expected 4 black pixels")
	}
	if err := m.WritePGM(&buf, 0, 4); err == nil {
		t.Error("zero width accepted")
	}
}

func TestWriteMatrixMarket(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 1, 0.5)
	tr.Add(0, 0, 0.5)
	tr.Add(1, 0, 1)
	// The float64 just above 0.3: its shortest exact decimal has 17
	// significant digits, so any shorter format would write a different
	// value.
	tr.Add(1, 1, 0.30000000000000004)
	var buf bytes.Buffer
	if err := tr.ToCSR().WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	want := "%%MatrixMarket matrix coordinate real general\n2 2 4\n" +
		"1 1 0.5\n1 2 0.5\n2 1 1\n2 2 0.30000000000000004\n"
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestBandwidth(t *testing.T) {
	tr := NewTriplet(5, 5)
	tr.Add(0, 0, 1)
	tr.Add(1, 3, 1)
	tr.Add(4, 1, 1)
	if bw := tr.ToCSR().Bandwidth(); bw != 3 {
		t.Fatalf("bandwidth = %d, want 3", bw)
	}
	if bw := Identity(4).Bandwidth(); bw != 0 {
		t.Fatalf("identity bandwidth = %d", bw)
	}
}
