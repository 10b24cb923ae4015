package experiments

import (
	"strings"
	"testing"
)

// TestAllRendersAreWellFormed checks every registered driver's render
// (paper artifacts and extensions, from the sequential configuration of the
// committed-output oracle) is non-trivial, mentions every benchmark it
// covers, and matches its ID/title contract. This is the report surface
// users actually read, so the failure names the broken property rather
// than only a byte diff.
func TestAllRendersAreWellFormed(t *testing.T) {
	for _, o := range renderRegistry(t, 0).outs {
		o := o
		t.Run(o.Runner.ID, func(t *testing.T) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			res := o.Result
			if res.ID() != o.Runner.ID {
				t.Errorf("result ID %q != registry ID %q", res.ID(), o.Runner.ID)
			}
			if res.Title() == "" {
				t.Error("empty title")
			}
			text := res.Render()
			if len(text) < 100 {
				t.Fatalf("render suspiciously short:\n%s", text)
			}
			// Every per-benchmark driver lists the primary suite;
			// table2.1 aggregates by suite and phase instead.
			want := []string{"go", "m88ksim", "gcc", "vortex", "mgrid"}
			if o.Runner.ID == "table2.1" {
				want = []string{"Spec-int95", "Spec-fp95 init", "Spec-fp95 comp", "FP loads"}
			}
			for _, token := range want {
				if !strings.Contains(text, token) {
					t.Errorf("render missing %q:\n%s", token, text)
				}
			}
			if strings.Contains(text, "%!") {
				t.Errorf("render contains a formatting error:\n%s", text)
			}
		})
	}
}
