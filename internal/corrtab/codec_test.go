package corrtab

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// The codec tests mirror the ebcp.report/v1 golden idiom: the serialized
// form of a deterministically trained table is pinned byte for byte, and
// the strict decoder must reject every malformed document loudly. When a
// schema change is deliberate, regenerate with:
//
//	go test ./internal/corrtab/ -run TestGoldenCorrtab -update

var update = flag.Bool("update", false, "rewrite the golden corrtab file")

// trainedTable builds a small table with a deterministic mix of fresh
// entries, merges, conflict overwrites and touches.
func trainedTable() *Table {
	t := must(New(Config{Entries: 64, MaxAddrs: 4}))
	t.Update(amo.Line(3), []amo.Line{10, 11, 12})
	t.Update(amo.Line(7), []amo.Line{20})
	t.Update(amo.Line(3), []amo.Line{13, 10})                // merge: 13 new, 10 promoted
	t.Update(amo.Line(64+5), []amo.Line{30, 31, 32, 33, 34}) // truncated to 4
	t.Update(amo.Line(128+7), []amo.Line{40})                // conflict: evicts line 7
	t.Touch(t.Index(amo.Line(3)), 12)
	return t
}

func encodeTable(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameContents asserts the two tables answer Lookup identically for every
// key in keys — the differential oracle the fuzz target reuses.
func sameContents(t *testing.T, got, want *Table, keys []amo.Line) {
	t.Helper()
	for _, k := range keys {
		g, w := got.Lookup(k), want.Lookup(k)
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("Lookup(%d) diverges after round trip: %v vs %v", k, g, w)
		}
	}
}

func TestGoldenCorrtab(t *testing.T) {
	tab := trainedTable()
	got := encodeTable(t, tab)

	path := filepath.Join("testdata", "corrtab_small.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("corrtab_small.json drifted from golden (len %d vs %d)\n"+
			"if the schema change is intentional, regenerate with -update", len(got), len(want))
	}

	decoded, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if !bytes.Equal(encodeTable(t, decoded), want) {
		t.Error("re-encoding the decoded table changed the bytes")
	}
	keys := []amo.Line{3, 7, 64 + 5, 128 + 7, 999}
	sameContents(t, decoded, tab, keys)
	if decoded.Stats() != (Stats{Lookups: uint64(len(keys)), Hits: 3}) {
		t.Errorf("decoded table must start with fresh statistics, got %+v", decoded.Stats())
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := string(encodeTable(t, trainedTable()))
	cases := []struct {
		name, doc string
		badReport bool
	}{
		{"wrong schema", strings.Replace(good, SchemaV1, "ebcp.corrtab/v0", 1), true},
		{"unknown field", strings.Replace(good, `"entries"`, `"bogus": 1, "entries"`, 1), false},
		{"bad geometry", strings.Replace(good, `"entries": 64`, `"entries": 63`, 1), false},
		{"row over capacity", strings.Replace(good, `"max_addrs": 4`, `"max_addrs": 1`, 1), true},
		{"truncated", good[:len(good)/2], false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(strings.NewReader(c.doc)); err == nil {
				t.Fatal("malformed document decoded without error")
			} else if c.badReport && !errors.Is(err, ebcperr.ErrBadReport) {
				t.Errorf("err = %v, want ErrBadReport", err)
			}
		})
	}
}

func TestDecodeRejectsUnsortedRows(t *testing.T) {
	// Two rows colliding on one index, and rows out of index order, both
	// violate the canonical form.
	docs := map[string]string{
		"duplicate index": `{"schema": "ebcp.corrtab/v1", "entries": 64, "max_addrs": 4,
			"rows": [{"tag": 3, "addrs": [1]}, {"tag": 67, "addrs": [2]}]}`,
		"unsorted": `{"schema": "ebcp.corrtab/v1", "entries": 64, "max_addrs": 4,
			"rows": [{"tag": 7, "addrs": [1]}, {"tag": 3, "addrs": [2]}]}`,
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(strings.NewReader(doc)); !errors.Is(err, ebcperr.ErrBadReport) {
				t.Errorf("err = %v, want ErrBadReport", err)
			}
		})
	}
}

// FuzzCorrtabCodec drives a live table with a fuzzed operation stream,
// then checks the codec against it: encode must decode, the round trip
// must preserve the wire form byte for byte, and the decoded table must
// answer every lookup exactly like the live table it came from.
func FuzzCorrtabCodec(f *testing.F) {
	f.Add([]byte{}, uint8(6), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(4), uint8(2))
	f.Add([]byte{0xff, 0x00, 0xfe, 0x01, 0x80, 0x7f, 0x81, 0x7e}, uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, ops []byte, entriesLog, maxAddrs uint8) {
		cfg := Config{Entries: 1 << (entriesLog % 12), MaxAddrs: 1 + int(maxAddrs%40)}
		live, err := New(cfg)
		if err != nil {
			t.Skip()
		}
		var keys []amo.Line
		var addrs []amo.Line
		for i := 0; i+1 < len(ops); i += 2 {
			key := amo.Line(ops[i])
			n := int(ops[i+1]) % 7
			switch {
			case n == 0:
				live.Touch(live.Index(key), amo.Line(ops[i+1]))
			default:
				addrs = addrs[:0]
				for j := 0; j < n; j++ {
					addrs = append(addrs, amo.Line(ops[i+1])+amo.Line(j*37))
				}
				live.Update(key, addrs)
			}
			keys = append(keys, key)
		}

		var buf bytes.Buffer
		if err := Encode(&buf, live); err != nil {
			t.Fatalf("encoding a live table failed: %v", err)
		}
		decoded, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode(encode(live)) failed: %v\n%s", err, buf.Bytes())
		}
		var again bytes.Buffer
		if err := Encode(&again, decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Error("round trip changed the wire form")
		}
		sameContents(t, decoded, live, keys)
	})
}

// FuzzDecodeRobust throws raw bytes at the strict decoder: it must either
// reject the input or produce a table whose re-encoding decodes again —
// never panic, and never accept a non-canonical form.
func FuzzDecodeRobust(f *testing.F) {
	f.Add([]byte(`{"schema": "ebcp.corrtab/v1", "entries": 8, "max_addrs": 2, "rows": []}`))
	f.Add([]byte(`{"schema": "ebcp.corrtab/v1", "entries": 8, "max_addrs": 2, "rows": [{"tag": 3, "addrs": [9]}]}`))
	f.Add([]byte(`{"schema": "ebcp.report/v1"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tab); err != nil {
			t.Fatalf("accepted table fails to encode: %v", err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-encoded accepted table fails to decode: %v", err)
		}
	})
}
