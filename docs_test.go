package sqlpp_test

import (
	"os"
	"regexp"
	"testing"
)

// TestExperimentCitationsResolve: every §3x (or §3x–3y range) that
// CHANGES.md, ROADMAP.md or README.md cites is a `## 3x.` heading of
// EXPERIMENTS.md, so a record section lost to a later edit fails here
// instead of going unnoticed.
func TestExperimentCitationsResolve(t *testing.T) {
	exp, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## 3([a-z]?)\. `).FindAllStringSubmatch(string(exp), -1) {
		have[m[1]] = true
	}
	cite := regexp.MustCompile(`§3([a-z]?)(?:[–-]§?3([a-z]))?`)
	for _, doc := range []string{"CHANGES.md", "ROADMAP.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
			cited := []string{m[1]}
			if m[1] != "" && m[2] > m[1] {
				for c := m[1][0] + 1; c <= m[2][0]; c++ {
					cited = append(cited, string(c))
				}
			}
			for _, c := range cited {
				if !have[c] {
					t.Errorf("%s cites §3%s, but EXPERIMENTS.md has no `## 3%s.` heading", doc, c, c)
				}
			}
		}
	}
}
