// Package cliio provides shared output helpers for the uerl* commands:
// one JSON encoder with a stable, machine-readable shape, so the -json
// modes of uerleval and uerlexp emit results scripts can consume the same
// way. (uerlserve -json prints scenario.EncodeSummary's golden bytes.)
package cliio

import (
	"encoding/json"
	"io"
)

// WriteJSON encodes v as two-space-indented JSON followed by a newline.
// Map keys are emitted in sorted order (encoding/json), so identical
// results produce byte-identical output — diffable across runs.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
