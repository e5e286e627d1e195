// Package benchfmt is the single place benchmark JSON leaves the
// repository. Every CLI that emits measurement records (kvbench's
// table cells, lbench's sweep points) writes them through Write, so
// downstream trajectory tooling — the CI artifact upload and anything
// plotting across PRs — sees one stable encoding instead of each tool
// hand-rolling its own encoder.
package benchfmt

import (
	"encoding/json"
	"io"
)

// Write encodes records — any slice of per-cell record structs — as
// an indented JSON array with a trailing newline, the repository's
// benchmark interchange format. Field names and shapes stay with the
// callers' record types; this fixes only the envelope.
func Write(w io.Writer, records any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
