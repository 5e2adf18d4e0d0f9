package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the paper artifacts in docs/ from the generators")

// docsDir holds the committed paper artifacts: figures_output.txt is
// the standard output of `ttmcas all`, and figures/ its SVG panels.
const docsDir = "../../docs"

// TestPaperArtifactsGolden renders every registry entry at the paper's
// fidelity, in memory, and compares its text with its section of
// docs/figures_output.txt and its SVG panels with docs/figures/*.svg,
// byte for byte. A deliberate change to a paper artifact regenerates
// them with
//
//	go test ./internal/figures -run TestPaperArtifactsGolden -update
//
// and ships the new docs/ in the same change.
func TestPaperArtifactsGolden(t *testing.T) {
	ids := IDs()
	textPath := filepath.Join(docsDir, "figures_output.txt")
	golden, err := os.ReadFile(textPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	sections := splitSections(string(golden), ids)

	texts := make([]string, len(ids))
	panels := make([][]string, len(ids))
	t.Run("render", func(t *testing.T) {
		for i, id := range ids {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				r, err := Generate(id, Config{})
				if err != nil {
					t.Fatal(err)
				}
				// `ttmcas all` prints each result with fmt.Println.
				texts[i] = r.Render() + "\n"
				if !*update && texts[i] != sections[i] {
					t.Errorf("text differs from %s: %s", textPath, firstDiff(sections[i], texts[i]))
				}
				for _, ch := range BuildCharts(r) {
					path := filepath.Join(docsDir, "figures", ch.Name+".svg")
					panels[i] = append(panels[i], path)
					if *update {
						if err := os.WriteFile(path, []byte(ch.SVG), 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Error(err)
					} else if string(want) != ch.SVG {
						t.Errorf("%s differs: %s", path, firstDiff(string(want), ch.SVG))
					}
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	all := strings.Join(texts, "")
	if *update {
		if err := os.WriteFile(textPath, []byte(all), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if all != string(golden) {
		t.Errorf("%s differs outside the figures' sections: %s", textPath, firstDiff(string(golden), all))
	}
	rendered := map[string]bool{}
	for _, ps := range panels {
		for _, p := range ps {
			rendered[p] = true
		}
	}
	files, err := filepath.Glob(filepath.Join(docsDir, "figures", "*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !rendered[f] {
			t.Errorf("%s is not rendered by any figure", f)
		}
	}
}

// splitSections cuts the golden text at each registry entry's header,
// in presentation order. An entry whose header is missing gets an empty
// section, so its subtest reports the difference.
func splitSections(golden string, ids []string) []string {
	starts := make([]int, len(ids))
	from := 0
	for i, id := range ids {
		starts[i] = -1
		if j := strings.Index(golden[from:], "== "+label(id)+": "); j >= 0 {
			starts[i] = from + j
			from += j
		}
	}
	sections := make([]string, len(ids))
	for i, start := range starts {
		if start < 0 {
			continue
		}
		end := len(golden)
		for _, s := range starts[i+1:] {
			if s >= 0 {
				end = s
				break
			}
		}
		sections[i] = golden[start:end]
	}
	return sections
}

// firstDiff describes the first line at which got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i >= len(ls) {
			return "<end of text>"
		}
		return fmt.Sprintf("%q", ls[i])
	}
	for i := 0; i < len(w) || i < len(g); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, line(w, i), line(g, i))
		}
	}
	return "no line differs"
}
