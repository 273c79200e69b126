// Package amo (address model) provides the physical address, cache line and
// program counter types shared by every layer of the simulator, together
// with the line/region arithmetic the caches and prefetchers need.
//
// The simulated machine uses 45-bit physical addresses (as assumed for the
// TCP storage estimate in the paper) and 64-byte cache lines everywhere,
// matching the default processor configuration in Section 4.4.
package amo

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// PC is the physical address of an instruction (used as a predictor key by
// PC-indexed prefetchers such as GHB PC/DC and SMS).
type PC uint64

const (
	// LineShift is log2 of the cache line size.
	LineShift = 6
	// LineSize is the cache line size in bytes (64B for L1 and L2, and the
	// natural unit of transfer to and from main memory).
	LineSize = 1 << LineShift
)

// Line identifies a cache line: the address with the low offset bits
// removed. Two addresses on the same 64B line have the same Line.
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Addr returns the base byte address of the line.
func (l Line) Addr() Addr { return Addr(l) << LineShift }

// Add returns the line delta lines away (delta may be negative).
func (l Line) Add(delta int64) Line { return Line(int64(l) + delta) }

// String formats a line as its base address.
func (l Line) String() string { return fmt.Sprintf("line %#x", uint64(l.Addr())) }

// String formats an address in hex.
func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// Region identifies an aligned spatial region (used by the Spatial Memory
// Streaming prefetcher). Regions are parameterized by their size.
type Region uint64

// RegionOf returns the region of size regionBytes (a power of two)
// containing a.
func RegionOf(a Addr, regionBytes uint64) Region {
	return Region(uint64(a) / regionBytes)
}

// Base returns the base address of the region for the given region size.
func (r Region) Base(regionBytes uint64) Addr { return Addr(uint64(r) * regionBytes) }

// LinesPerRegion returns how many cache lines a region of the given size
// holds.
func LinesPerRegion(regionBytes uint64) int { return int(regionBytes / LineSize) }

// OffsetInRegion returns the line index of a within its region.
func OffsetInRegion(a Addr, regionBytes uint64) int {
	return int((uint64(a) % regionBytes) >> LineShift)
}

// IsPow2 reports whether v is a power of two (and non-zero).
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0.
func Log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Tag returns the tag of the line for a cache with setBits index bits,
// i.e. the line number with the set index removed.
func (l Line) Tag(setBits uint) uint64 { return uint64(l) >> setBits }

// SetIndex returns the set index of the line for a cache with nSets sets
// (a power of two).
func (l Line) SetIndex(nSets int) int { return int(uint64(l) & uint64(nSets-1)) }
