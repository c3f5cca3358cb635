package mem

import (
	"fmt"
	"math/bits"
)

// WayMask is a CAT-style capacity bitmask over a cache's ways: bit w set
// means the owner may fill (and select victims from) way w. Lookups hit
// anywhere regardless of masks — partitioning confines allocation, not
// visibility, exactly like hardware way-partitioning (Intel CAT). The
// 64-bit width bounds supported associativity; NewCache rejects wider
// caches.
type WayMask uint64

// FullMask returns the mask covering every way of a ways-wide cache.
func FullMask(ways int) WayMask {
	if ways <= 0 || ways > 64 {
		panic(fmt.Sprintf("mem: way mask needs 1..64 ways, got %d", ways))
	}
	if ways == 64 {
		return ^WayMask(0)
	}
	return WayMask(1)<<ways - 1
}

// ContiguousMask returns the mask covering ways [loWay, hiWay), the shape
// hardware CAT masks are restricted to.
func ContiguousMask(loWay, hiWay int) WayMask {
	if loWay < 0 || hiWay > 64 || loWay >= hiWay {
		panic(fmt.Sprintf("mem: contiguous mask [%d,%d) invalid", loWay, hiWay))
	}
	if hiWay-loWay == 64 {
		return ^WayMask(0)
	}
	return (WayMask(1)<<(hiWay-loWay) - 1) << loWay
}

// Count returns the number of ways in the mask.
func (m WayMask) Count() int { return bits.OnesCount64(uint64(m)) }

// String renders the mask as a hex literal, LSB = way 0.
func (m WayMask) String() string { return fmt.Sprintf("0x%x", uint64(m)) }
