package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/program"
)

// This file defines the exported fingerprint keys the serving layer caches
// on. A fingerprint is a stable content hash of an executable image — two
// programs with identical text, data, entry point and symbols (directives
// included) share one fingerprint, whether they arrived as a named synthetic
// benchmark, an assembled source upload, or a .vpimg file. The vpserve
// result/trace caches are keyed by it, so identical work is deduplicated
// regardless of how the program reached the server.

// Fingerprint returns the content hash of a program image as a short hex
// string. It is deterministic across processes (it hashes the canonical
// binary serialization, the same bytes program.Save writes).
func Fingerprint(p *program.Program) (string, error) {
	h := sha256.New()
	if err := program.Write(h, p); err != nil {
		return "", fmt.Errorf("workload: fingerprint %s: %w", p.Name, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// BenchKey is the canonical cache key of one (benchmark, input) pair —
// cheaper than building the program when only the key is needed, and
// guaranteed consistent with Build's own memoization key.
func BenchKey(name string, in Input) string {
	return fmt.Sprintf("bench/%s/%s", name, in)
}

// FingerprintOf is Fingerprint memoized by image identity, in the same
// bounded cache as Build's images (an evicted image is simply hashed
// again). It must only be used with shared, immutable images (anything
// Build returns or the server registry holds).
func FingerprintOf(p *program.Program) (string, error) {
	return images.entry(p).fingerprint()
}
