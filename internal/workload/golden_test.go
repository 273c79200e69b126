package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ebcp/internal/trace"
)

// goldenRecords is how many records of each stream TestGeneratorStreamGolden
// hashes: enough to pass through thousands of chains, variant rolls,
// noise and cold visits.
const goldenRecords = 200_000

// streamDigest returns the SHA-256 of the first n records of g, each
// encoded field by field, little-endian: Gap (4 bytes), Kind (1), Addr
// (8), PC (8) and the three flags (1 byte each).
func streamDigest(g *Generator, n int) string {
	h := sha256.New()
	buf := make([]trace.Record, 1024)
	var enc [24]byte
	for n > 0 {
		k := min(n, len(buf))
		g.ReadBatch(buf[:k])
		for _, r := range buf[:k] {
			binary.LittleEndian.PutUint32(enc[0:], r.Gap)
			enc[4] = byte(r.Kind)
			binary.LittleEndian.PutUint64(enc[5:], uint64(r.Addr))
			binary.LittleEndian.PutUint64(enc[13:], uint64(r.PC))
			enc[21] = boolByte(r.DependsOnMiss)
			enc[22] = boolByte(r.Serializing)
			enc[23] = boolByte(r.BreaksWindow)
			h.Write(enc[:])
		}
		n -= k
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestGeneratorStreamGolden pins the generator's own output, so a change
// to chain construction or emission shows here and not only in the
// simulator goldens downstream. It covers the four benchmarks at their
// canonical seeds, one CMP lane (SPECjbb2005 at seed + 7919, as the CMP
// experiments seed lane 1) and Database scaled ×0.05 (the scale of a
// quick daemon request). A digest changes only when the record stream
// does; update it only for a deliberate change to the synthetic workloads.
func TestGeneratorStreamGolden(t *testing.T) {
	lane := SPECjbb2005()
	lane.Seed += 7919
	small := must(Scaled(Database(), 0.05))
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"Database", Database(), "a1f1d250ac78f7f9e7d8728a05547c5612c17ee76b23883a0d10b3642cba7297"},
		{"TPC-W", TPCW(), "4c3c879099735ac4debbfbe0cee90d694ab3ab7b91ec09387769ffa265abe54f"},
		{"SPECjbb2005", SPECjbb2005(), "8c560b31dafacff4c1b517e639fb369397b8ff42ae18b33647d0638c91433480"},
		{"SPECjAppServer2004", SPECjAppServer2004(), "8b638c14d6ab9111b18ed8856eb419b5a91f674d35f0fb6545acc72eec8d2c9d"},
		{"SPECjbb2005/lane1", lane, "3d4416c081041da674b46ce8614d338465f1e88e97e8bc7d56774fc8737937c3"},
		{"Database/x0.05", small, "e9325c60e3d7592bac913cdda7110021ef87e5a50ad49088b22d6f516379e832"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := streamDigest(must(New(c.p)), goldenRecords); got != c.want {
				t.Errorf("stream digest = %s, want %s", got, c.want)
			}
		})
	}
}
