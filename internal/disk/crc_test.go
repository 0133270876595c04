package disk

import (
	"testing"

	"altoos/internal/sim"
)

// serialCRC is the rotate-and-xor fold one word at a time: the reference
// valueCRC's block form must reproduce exactly.
func serialCRC(v []Word) Word {
	var c Word
	for _, w := range v {
		c = c<<1 | c>>15
		c ^= w
	}
	return c
}

// TestValueCRCMatchesSerialFold checks the block fold against the serial one
// on random words at every length from empty to a page, across every
// block/tail split, and on the never-written page's all-ones value.
func TestValueCRCMatchesSerialFold(t *testing.T) {
	rnd := sim.NewRand(7)
	v := make([]Word, PageWords)
	for n := 0; n <= PageWords; n++ {
		for i := range v[:n] {
			v[i] = rnd.Word()
		}
		if got, want := valueCRC(v[:n]), serialCRC(v[:n]); got != want {
			t.Fatalf("length %d: valueCRC = %#04x, serial fold %#04x", n, got, want)
		}
	}
	if want := serialCRC(onesValue[:]); onesCRC != want {
		t.Errorf("onesCRC = %#04x, serial fold of the all-ones page %#04x", onesCRC, want)
	}
}

// BenchmarkValueCRC folds one page of value words, the checksum every page
// write stamps and every checked read verifies.
func BenchmarkValueCRC(b *testing.B) {
	rnd := sim.NewRand(7)
	var v [PageWords]Word
	for i := range v {
		v[i] = rnd.Word()
	}
	b.SetBytes(2 * PageWords)
	var c Word
	for i := 0; i < b.N; i++ {
		c ^= valueCRC(v[:])
	}
	crcSink = c
}

var crcSink Word
