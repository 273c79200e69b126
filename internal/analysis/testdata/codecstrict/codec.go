// Package codec is the codecstrict fixture, loaded under a virtual
// internal/ path: every decoder/encoder/fuzz-coverage shape the
// analyzer must flag, plus the compliant and suppressed shapes it must
// leave alone. The accompanying fake_test.go and testdata/fuzz corpus
// exist only to satisfy (or deliberately fail) rule B — the go tool
// never builds them because this whole tree lives under testdata.
package codec

import (
	"encoding/json"
	j "encoding/json"
	"io"

	"ebcp/internal/metrics"
)

const (
	// GoodSchemaV1 is exercised by FuzzGood (via decodeStrict) with a
	// committed corpus: fully compliant.
	GoodSchemaV1 = "ebcp.good/v1"
	// NoFuzzSchemaV1 has no fuzz target anywhere.
	NoFuzzSchemaV1 = "ebcp.nofuzz/v1" // want `\[codecstrict\] schema const NoFuzzSchemaV1 \("ebcp\.nofuzz/v1"\) has no fuzz target exercising its codec`
	// NoCorpusSchemaV1 has a fuzz target but no committed seeds.
	NoCorpusSchemaV1 = "ebcp.nocorpus/v1" // want `\[codecstrict\] schema const NoCorpusSchemaV1 \("ebcp\.nocorpus/v1"\): fuzz target FuzzNoCorpus has no committed corpus under testdata/fuzz/FuzzNoCorpus`
)

type doc struct {
	Schema string `json:"schema"`
}

// decodeLoose builds its own decoder: rule A violation, strict or not.
func decodeLoose(r io.Reader) (doc, error) {
	var d doc
	dec := json.NewDecoder(r) // want `\[codecstrict\] json\.NewDecoder bypasses the strict decoder; route through metrics\.ReadJSON`
	dec.DisallowUnknownFields()
	err := dec.Decode(&d)
	return d, err
}

// decodeStrict is the contract shape, and references GoodSchemaV1 so a
// fuzz target calling it covers that constant.
func decodeStrict(r io.Reader) (doc, error) {
	var d doc
	if err := metrics.ReadJSON(r, &d); err != nil {
		return doc{}, err
	}
	if d.Schema != GoodSchemaV1 {
		return doc{}, io.ErrUnexpectedEOF
	}
	return d, nil
}

// decodeSanctioned shows the suppression path: a justified tolerant
// decoder is accepted and keeps its allow live.
func decodeSanctioned(r io.Reader) (doc, error) {
	var d doc
	err := j.NewDecoder(r).Decode(&d) //ebcp:allow codecstrict fixture: tolerant decoder for a schema migration window
	return d, err
}

// encodeHandRolled bypasses the canonical encoder twice — once under an
// import alias the type-aware resolver must see through.
func encodeHandRolled(w io.Writer, d doc) error {
	if err := j.NewEncoder(w).Encode(d); err != nil { // want `\[codecstrict\] json\.NewEncoder bypasses the canonical encoder; route through metrics\.WriteJSON`
		return err
	}
	_, err := json.MarshalIndent(d, "", "  ") // want `\[codecstrict\] json\.MarshalIndent bypasses the canonical encoder; route through metrics\.WriteJSON`
	return err
}
