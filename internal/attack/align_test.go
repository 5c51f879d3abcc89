package attack

import (
	"testing"

	"deaduops/internal/uopcache"
)

// TestAlignmentPairMatched pins the property the whole channel rests
// on: the two chains are indistinguishable in µops, bytes, and
// predecode windows, and both overflow the cacheability cap so every
// traversal is MITE-delivered.
func TestAlignmentPairMatched(t *testing.T) {
	g := DefaultGeometry()
	s := StraddleChain(0x100000, g, "straddle")
	a := AlignedChain(0x140000, g, "aligned")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.UopsPerRegion() != a.UopsPerRegion() {
		t.Errorf("µops per region differ: straddle %d, aligned %d",
			s.UopsPerRegion(), a.UopsPerRegion())
	}
	if s.BodyBytes() != a.BodyBytes() {
		t.Errorf("body bytes differ: straddle %d, aligned %d",
			s.BodyBytes(), a.BodyBytes())
	}
	if cap := uopcache.MaxLinesPerRegion * uopcache.Skylake().SlotsPerLine; s.UopsPerRegion() <= cap {
		t.Errorf("chains are cacheable (%d µops ≤ %d): the stall would vanish on warm traversals",
			s.UopsPerRegion(), cap)
	}
	if s.Regions() != a.Regions() {
		t.Errorf("region counts differ: straddle %d, aligned %d", s.Regions(), a.Regions())
	}
}
