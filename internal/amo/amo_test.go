package amo

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{127, 1},
		{128, 2},
		{0x1000, 0x40},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

// physMask keeps an address within the 45-bit physical address space.
const physMask Addr = 1<<45 - 1

func TestLineAddrRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw) & physMask
		l := LineOf(a)
		base := l.Addr()
		// Base must be line-aligned, contain a, and map back to the same line.
		return uint64(base)%LineSize == 0 &&
			base <= a && a < base+LineSize &&
			LineOf(base) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineAdd(t *testing.T) {
	l := LineOf(0x1000)
	if got := l.Add(1); got != LineOf(0x1040) {
		t.Errorf("Add(1) = %v", got)
	}
	if got := l.Add(-1); got != LineOf(0xfc0) {
		t.Errorf("Add(-1) = %v", got)
	}
	if got := l.Add(0); got != l {
		t.Errorf("Add(0) = %v", got)
	}
}

func TestRegionOf(t *testing.T) {
	const rb = 2048 // 2KB spatial regions, as in SMS
	if RegionOf(0, rb) != RegionOf(2047, rb) {
		t.Error("addresses 0 and 2047 should share a 2KB region")
	}
	if RegionOf(2047, rb) == RegionOf(2048, rb) {
		t.Error("addresses 2047 and 2048 should not share a 2KB region")
	}
	r := RegionOf(5000, rb)
	if base := r.Base(rb); base != 4096 {
		t.Errorf("Base = %v, want 4096", base)
	}
	if got := LinesPerRegion(rb); got != 32 {
		t.Errorf("LinesPerRegion(2048) = %d, want 32", got)
	}
}

func TestOffsetInRegion(t *testing.T) {
	const rb = 2048
	cases := []struct {
		a    Addr
		want int
	}{
		{0, 0}, {63, 0}, {64, 1}, {2047, 31}, {2048, 0}, {2048 + 640, 10},
	}
	for _, c := range cases {
		if got := OffsetInRegion(c.a, rb); got != c.want {
			t.Errorf("OffsetInRegion(%v) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestOffsetInRegionProperty(t *testing.T) {
	const rb = 2048
	f := func(raw uint64) bool {
		a := Addr(raw) & physMask
		off := OffsetInRegion(a, rb)
		if off < 0 || off >= LinesPerRegion(rb) {
			return false
		}
		// Region base + offset*LineSize must land on the same line as a.
		back := RegionOf(a, rb).Base(rb) + Addr(off*LineSize)
		return LineOf(back) == LineOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 64, 1 << 20, 1 << 45} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 5, 6, 7, 100, 1<<20 + 1} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 3: 1, 4: 2, 64: 6, 1 << 20: 20}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Errorf("Log2(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestTagSetIndex(t *testing.T) {
	const nSets = 512
	setBits := Log2(nSets)
	f := func(raw uint64) bool {
		l := LineOf(Addr(raw) & physMask)
		tag, idx := l.Tag(setBits), l.SetIndex(nSets)
		if idx < 0 || idx >= nSets {
			return false
		}
		// tag and set index together reconstruct the line.
		return Line(tag<<setBits|uint64(idx)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
