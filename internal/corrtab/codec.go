// ebcp.corrtab/v1: the schema-versioned serialization of a trained
// correlation table, enabling warm-start runs that skip retraining. The
// codec follows the ebcp.report/v1 idiom: a schema string leads the
// document, the shared metrics.WriteJSON encoder produces byte-stable
// output, and the decoder is strict — unknown fields, wrong schemas, bad
// geometry and malformed rows are all loud errors, never partial tables.
//
// Only architected state is serialized: the geometry (entries, max
// addresses per entry) and the live rows with their MRU-first address
// order. Statistics are not part of the document; a decoded table always
// starts with zeroed counters.
package corrtab

import (
	"fmt"
	"io"

	"encoding/json"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
)

// SchemaV1 identifies version 1 of the serialized-table document.
const SchemaV1 = "ebcp.corrtab/v1"

// RowV1 is one live table entry in wire form. Addrs is MRU first, the
// order Lookup returns.
type RowV1 struct {
	Tag   uint64   `json:"tag"`
	Addrs []uint64 `json:"addrs"`
}

// DocV1 is the serialized table. Rows are sorted by ascending table
// index (Tag & (Entries-1)); the decoder enforces this so every table
// has exactly one canonical wire form.
type DocV1 struct {
	Schema   string  `json:"schema"`
	Entries  int     `json:"entries"`
	MaxAddrs int     `json:"max_addrs"`
	Rows     []RowV1 `json:"rows"`
}

// Encode writes the table to w as an ebcp.corrtab/v1 document.
func Encode(w io.Writer, t *Table) error {
	doc := DocV1{
		Schema:   SchemaV1,
		Entries:  t.cfg.Entries,
		MaxAddrs: t.cfg.MaxAddrs,
		Rows:     make([]RowV1, 0, t.Occupancy()),
	}
	for _, row := range t.Rows() {
		wire := RowV1{Tag: uint64(row.Tag), Addrs: make([]uint64, len(row.Addrs))}
		for i, a := range row.Addrs {
			wire.Addrs[i] = uint64(a)
		}
		doc.Rows = append(doc.Rows, wire)
	}
	if err := metrics.WriteJSON(w, doc); err != nil {
		return fmt.Errorf("corrtab: encoding table: %w", err)
	}
	return nil
}

// Decode parses an ebcp.corrtab/v1 document and reconstructs the table.
// Unknown fields, wrong schema strings, invalid geometry, rows out of
// index order (which also covers duplicate indices) and over-long
// address lists are all rejected; schema and row-shape errors match
// ebcperr.ErrBadReport under errors.Is. The returned table has fresh
// statistics.
func Decode(r io.Reader) (*Table, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc DocV1
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("corrtab: decoding table: %w", err)
	}
	if doc.Schema != SchemaV1 {
		return nil, ebcperr.Wrap(ebcperr.ErrBadReport, "corrtab: unsupported table schema %q (want %q)", doc.Schema, SchemaV1)
	}
	cfg := Config{Entries: doc.Entries, MaxAddrs: doc.MaxAddrs}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	var prev uint64
	for i, row := range doc.Rows {
		if len(row.Addrs) > cfg.MaxAddrs {
			return nil, ebcperr.Wrap(ebcperr.ErrBadReport, "corrtab: row %d holds %d addrs, geometry allows %d", i, len(row.Addrs), cfg.MaxAddrs)
		}
		idx := t.Index(amo.Line(row.Tag))
		if i > 0 && idx <= prev {
			return nil, ebcperr.Wrap(ebcperr.ErrBadReport, "corrtab: row %d index %d not above predecessor %d (rows must be sorted, one per index)", i, idx, prev)
		}
		prev = idx
		addrs := make([]amo.Line, len(row.Addrs))
		for j, a := range row.Addrs {
			addrs[j] = amo.Line(a)
		}
		// Update on a fresh entry replays the MRU-first order exactly:
		// it merges in reverse so addrs[0] ends most recently used.
		t.Update(amo.Line(row.Tag), addrs)
	}
	t.ResetStats()
	return t, nil
}
