package storage

import "testing"

func TestRowBytes(t *testing.T) {
	r := Row{Key: 1, Vec: []float64{1, 2, 3}}
	if r.Bytes() != 8+24 {
		t.Errorf("Bytes = %d", r.Bytes())
	}
}
