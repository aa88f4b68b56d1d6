package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"schemr"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/server"
	"schemr/internal/tightness"
)

// expFig1 reproduces Figure 1: the query graph built from a schema
// fragment (A) and a keyword (B).
func expFig1(cfg config) error {
	q, err := schemr.ParseQuery(schemr.QueryInput{
		Keywords: "diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		return err
	}
	fmt.Println("input: keyword \"diagnosis\" + DDL fragment patient(height, gender)")
	fmt.Println("\nquery graph (forest of trees):")
	for fi, frag := range q.Fragments {
		fmt.Printf("  (A) fragment %d:\n", fi)
		for _, e := range frag.Entities {
			fmt.Printf("        %s\n", e.Name)
			for _, a := range e.Attributes {
				fmt.Printf("        ├── %s (%s)\n", a.Name, a.Type)
			}
		}
	}
	for _, k := range q.Keywords {
		fmt.Printf("  (B) keyword: %s (one-node graph)\n", k)
	}
	fmt.Printf("\nelements to match: %d\n", q.NumElements())
	for _, el := range q.Elements() {
		fmt.Printf("  %v\n", el)
	}
	fmt.Printf("flattened for candidate extraction: %v\n", q.Flatten())
	return nil
}

// expFig2 reproduces Figure 2: the tabular results of the health-clinic
// query plus side-by-side tree and radial visualizations with similarity
// encodings, written as SVG and GraphML artifacts.
func expFig2(cfg config) error {
	n := cfg.scale
	if n == 0 {
		n = 300
	}
	if cfg.quick {
		n = 80
	}
	repo, err := buildMixedRepo(cfg.seed, n)
	if err != nil {
		return err
	}
	if _, err := repo.Put(clinicSchema()); err != nil {
		return err
	}
	sys, err := newSystem(repo)
	if err != nil {
		return err
	}
	q, err := schemr.ParseQuery(paperInput())
	if err != nil {
		return err
	}
	results, stats, err := sys.SearchWithStats(q, 8)
	if err != nil {
		return err
	}
	fmt.Printf("query: %v over %d schemas (%d candidates)\n\n", q, stats.CorpusSize, stats.Candidates)
	fmt.Printf("(3) tabular results:\n")
	fmt.Printf("    %-26s %7s %7s %8s %6s  %s\n", "name", "score", "matches", "entities", "attrs", "description")
	for _, r := range results {
		desc := r.Description
		if len(desc) > 38 {
			desc = desc[:37] + "…"
		}
		fmt.Printf("    %-26s %7.3f %7d %8d %6d  %s\n", trunc(r.Name, 26), r.Score, r.NumMatches(), r.Entities, r.Attributes, desc)
	}
	if len(results) == 0 {
		return fmt.Errorf("no results")
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	fmt.Printf("\n(4) visualizations (node color = element type, ring = match quality):\n")
	for i, r := range results[:min(2, len(results))] {
		s := sys.Get(r.ID)
		scores := schemr.ResultScores(r)
		for _, kind := range []string{"tree", "radial"} {
			viz, err := schemr.Visualize(s, schemr.VizOptions{Layout: kind, Scores: scores})
			if err != nil {
				return err
			}
			svgPath := filepath.Join(cfg.out, fmt.Sprintf("fig2-result%d-%s.svg", i+1, kind))
			if err := os.WriteFile(svgPath, []byte(viz.SVG), 0o644); err != nil {
				return err
			}
			fmt.Printf("    wrote %s\n", svgPath)
			if kind == "tree" {
				gmlPath := filepath.Join(cfg.out, fmt.Sprintf("fig2-result%d.graphml", i+1))
				if err := os.WriteFile(gmlPath, viz.GraphML, 0o644); err != nil {
					return err
				}
				fmt.Printf("    wrote %s\n", gmlPath)
			}
		}
	}
	return nil
}

// expFig3 reproduces Figure 3's data flow quantitatively: the candidate
// funnel (corpus → top-n candidates → ranked results) and per-phase
// latency across corpus sizes.
func expFig3(cfg config) error {
	sizes := []int{1000, 5000, 30000}
	if cfg.scale != 0 {
		sizes = []int{cfg.scale}
	}
	if cfg.quick {
		sizes = []int{200, 1000}
	}
	fmt.Printf("%8s %10s %10s %8s %12s %12s %12s\n",
		"corpus", "candidates", "ranked", "matched", "extract", "match", "tightness")
	for _, size := range sizes {
		repo, err := buildMixedRepo(cfg.seed, size)
		if err != nil {
			return err
		}
		if _, err := repo.Put(clinicSchema()); err != nil {
			return err
		}
		sys, err := newSystem(repo)
		if err != nil {
			return err
		}
		q, err := schemr.ParseQuery(paperInput())
		if err != nil {
			return err
		}
		// Median-ish over a few runs: take the best of 5 to damp noise.
		var best schemr.SearchStats
		var ranked int
		for i := 0; i < 5; i++ {
			results, stats, err := sys.SearchWithStats(q, 10)
			if err != nil {
				return err
			}
			if i == 0 || stats.Total() < best.Total() {
				best = stats
				ranked = len(results)
			}
		}
		fmt.Printf("%8d %10d %10d %8d %12v %12v %12v\n",
			best.CorpusSize, best.Candidates, ranked, best.ElementsScored,
			best.PhaseExtract.Round(time.Microsecond),
			best.PhaseMatch.Round(time.Microsecond),
			best.PhaseTightness.Round(time.Microsecond))
	}
	fmt.Println("\nexpected shape: candidates ≪ corpus (the index is the scalable filter);")
	fmt.Println("matching dominates latency, which is why the funnel exists.")
	return nil
}

// expFig4 reproduces the Figure 4 walkthrough: per-anchor penalized scores
// over the case/patient/doctor example.
func expFig4(cfg config) error {
	s := &model.Schema{
		Name: "clinic",
		Entities: []*model.Entity{
			{Name: "case", Attributes: []*model.Attribute{{Name: "doctor"}, {Name: "patient"}}},
			{Name: "patient", Attributes: []*model.Attribute{{Name: "height"}, {Name: "gender"}}},
			{Name: "doctor", Attributes: []*model.Attribute{{Name: "gender"}}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient"},
			{FromEntity: "case", FromColumns: []string{"doctor"}, ToEntity: "doctor"},
		},
	}
	matched := []string{"case.doctor", "case.patient", "patient.height", "patient.gender", "doctor.gender"}
	fmt.Println("schema: case(doctor, patient) → patient(height, gender), doctor(gender)")
	fmt.Printf("matched elements (all with score 1.0): %v\n", matched)

	qe := []query.Element{{Name: "q", Fragment: -1}}
	m := match.NewMatrix(qe, s.Elements())
	for si, el := range s.Elements() {
		for _, want := range matched {
			if el.Ref.String() == want {
				m.Set(0, si, 1)
			}
		}
	}
	res := tightness.ScoreProfiled(match.NewProfile(s), m, tightness.Options{})
	fmt.Println("\nper-anchor penalized averages (near penalty 0.1, far penalty 0.3):")
	for _, anchor := range []string{"case", "patient", "doctor"} {
		marker := "  "
		if anchor == res.Anchor {
			marker = "→ "
		}
		fmt.Printf("  %sanchor %-8s t = %.3f\n", marker, anchor, res.AnchorScores[anchor])
	}
	fmt.Printf("\nt_max = %.3f at anchor %q\n", res.Score, res.Anchor)
	fmt.Println("\nper-element penalties under the winning anchor:")
	for _, el := range res.Matched {
		fmt.Printf("  %-16s score %.2f  penalty %.2f\n", el.Ref, el.Score, el.Penalty)
	}
	// Sanity against the hand calculation.
	if res.Anchor != "case" || !approx(res.Score, 0.94) {
		return fmt.Errorf("walkthrough mismatch: anchor=%s score=%v (hand calculation: case/0.94)", res.Anchor, res.Score)
	}
	fmt.Println("\nmatches the hand calculation: case 0.94, patient 0.90, doctor 0.84.")
	return nil
}

// expFig5 exercises the Figure 5 architecture end to end over real HTTP:
// import → scheduled offline indexing → search → GraphML → SVG.
func expFig5(cfg config) error {
	sys := schemr.New()
	if _, err := sys.Repo.Put(clinicSchema()); err != nil {
		return err
	}
	if err := sys.Refresh(); err != nil {
		return err
	}
	srv := server.New(sys.Engine)
	stop := srv.StartIndexer(20 * time.Millisecond)
	defer stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("server up at %s (offline indexer every 20ms)\n", ts.URL)

	// 1. GUI imports a schema.
	start := time.Now()
	var imp server.ImportedJSON
	err := v1Call(http.PostForm(ts.URL+"/api/v1/schemas", url.Values{
		"name": {"greenhouse"},
		"ddl":  {"CREATE TABLE sensor (humidity FLOAT, soil_moisture FLOAT, lux INT, co2 INT);"},
	}))(&imp)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	fmt.Printf("1. POST /api/v1/schemas      → %s (%v)\n", imp.ID, time.Since(start).Round(time.Microsecond))

	// 2. Wait for the scheduled indexer to pick it up.
	start = time.Now()
	deadline := time.Now().Add(3 * time.Second)
	for {
		var sr server.SearchDataJSON
		if err := v1Call(http.Get(ts.URL + "/api/v1/search?q=humidity+soil"))(&sr); err != nil {
			return err
		}
		if sr.Total > 0 && sr.Results[0].ID == imp.ID {
			fmt.Printf("2. offline indexer sync      → searchable after %v\n", time.Since(start).Round(time.Millisecond))
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("imported schema never indexed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 3. The paper query as a search round trip.
	start = time.Now()
	form := url.Values{"q": {"patient height gender diagnosis"}, "ddl": {"CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"}}
	var sr server.SearchDataJSON
	if err := v1Call(http.PostForm(ts.URL+"/api/v1/search", form))(&sr); err != nil {
		return err
	}
	if sr.Total == 0 {
		return fmt.Errorf("no results")
	}
	fmt.Printf("3. POST /api/v1/search       → %d results, top %q score %.3f (%v)\n",
		sr.Total, sr.Results[0].Name, sr.Results[0].Score, time.Since(start).Round(time.Microsecond))

	// 4. Drill-in: GraphML then SVG.
	id := sr.Results[0].ID
	start = time.Now()
	gml, err := v1Document(ts.URL + "/api/v1/schema/" + id + "/graphml?q=patient+height+gender+diagnosis")
	if err != nil {
		return err
	}
	fmt.Printf("4. GET …/schema/{id}/graphml → %d bytes GraphML (%v)\n", len(gml), time.Since(start).Round(time.Microsecond))

	start = time.Now()
	svgBytes, err := v1Document(ts.URL + "/api/v1/schema/" + id + "/svg?layout=radial&q=patient+height+gender+diagnosis")
	if err != nil {
		return err
	}
	if !strings.Contains(string(svgBytes), "<svg") {
		return fmt.Errorf("svg endpoint returned %q", svgBytes[:min(len(svgBytes), 60)])
	}
	fmt.Printf("5. GET …/svg?layout=radial   → %d bytes SVG (%v)\n", len(svgBytes), time.Since(start).Round(time.Microsecond))
	fmt.Println("\narchitecture round trip complete: GUI ⇄ search service ⇄ match engine ⇄ repository + offline indexer.")
	return nil
}

// v1Call returns a decoder for one /api/v1 response: it unmarshals the
// envelope's data into the value it is given, or returns the envelope's
// error.
func v1Call(resp *http.Response, err error) func(data any) error {
	return func(data any) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		env := server.Envelope{Data: data}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return fmt.Errorf("status %d: decoding envelope: %w", resp.StatusCode, err)
		}
		if env.Error != nil {
			return fmt.Errorf("status %d: %s: %s", resp.StatusCode, env.Error.Code, env.Error.Message)
		}
		return nil
	}
}

// v1Document fetches a GraphML or SVG rendering, which the API serves as
// the document itself rather than in the envelope.
func v1Document(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, err
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
