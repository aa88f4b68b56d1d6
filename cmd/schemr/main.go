// Command schemr is the Schemr command-line client: it manages a schema
// repository on disk and searches it with the paper's three-phase
// algorithm.
//
// Usage:
//
//	schemr init    -data DIR
//	schemr import  -data DIR -name NAME [-format ddl|xsd] FILE
//	schemr search  -data DIR [-q "keywords"] [-ddl FILE] [-xsd FILE] [-n 10] [-stats]
//	schemr show    -data DIR -id ID [-format summary|ddl|xsd|graphml|svg] [-layout tree|radial] [-focus NODE]
//	schemr list    -data DIR
//	schemr delete  -data DIR -id ID
//	schemr comment -data DIR -id ID -author WHO -text MSG [-rating 1..5]
//	schemr stats   -data DIR
//	schemr explain -data DIR -id ID -q "keywords" [-ddl FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"schemr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "schemr:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (init, import, search, show, list, delete, comment, stats, explain)")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "init":
		return cmdInit(rest)
	case "import":
		return cmdImport(rest)
	case "search":
		return cmdSearch(rest)
	case "show":
		return cmdShow(rest)
	case "list":
		return cmdList(rest)
	case "delete":
		return cmdDelete(rest)
	case "comment":
		return cmdComment(rest)
	case "stats":
		return cmdStats(rest)
	case "explain":
		return cmdExplain(rest)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func dataFlag(fs *flag.FlagSet) *string {
	return fs.String("data", "schemr-data", "data directory (repository.json)")
}

func openSystem(dir string) (*schemr.System, error) {
	sys, err := schemr.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("opening %s (run 'schemr init' first?): %w", dir, err)
	}
	return sys, nil
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	data := dataFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys := schemr.New()
	if err := sys.Save(*data); err != nil {
		return err
	}
	fmt.Printf("initialized empty repository in %s\n", *data)
	return nil
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	data := dataFlag(fs)
	name := fs.String("name", "", "schema name (default: file basename)")
	format := fs.String("format", "", "ddl or xsd (default: by file extension)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("import needs exactly one FILE argument")
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if *format == "" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".xsd", ".xml":
			*format = "xsd"
		default:
			*format = "ddl"
		}
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	var id string
	switch *format {
	case "ddl":
		id, err = sys.ImportDDL(*name, string(src))
	case "xsd":
		id, err = sys.ImportXSD(*name, string(src))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if err := sys.Save(*data); err != nil {
		return err
	}
	fmt.Printf("imported %s as %s\n", *name, id)
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	data := dataFlag(fs)
	q := fs.String("q", "", "keyword terms")
	ddlFile := fs.String("ddl", "", "DDL fragment file (query by example)")
	xsdFile := fs.String("xsd", "", "XSD fragment file (query by example)")
	n := fs.Int("n", 10, "number of results")
	stats := fs.Bool("stats", false, "print phase statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := schemr.QueryInput{Keywords: *q}
	if *ddlFile != "" {
		src, err := os.ReadFile(*ddlFile)
		if err != nil {
			return err
		}
		in.DDL = string(src)
	}
	if *xsdFile != "" {
		src, err := os.ReadFile(*xsdFile)
		if err != nil {
			return err
		}
		in.XSD = string(src)
	}
	query, err := schemr.ParseQuery(in)
	if err != nil {
		return err
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	results, st, err := sys.SearchWithStats(query, *n)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		fmt.Println("no results")
		return nil
	}
	fmt.Printf("%-10s %-28s %7s %7s %8s %6s  %s\n", "id", "name", "score", "matches", "entities", "attrs", "description")
	for _, r := range results {
		fmt.Printf("%-10s %-28s %7.3f %7d %8d %6d  %s\n",
			r.ID, truncate(r.Name, 28), r.Score, r.NumMatches(), r.Entities, r.Attributes, truncate(r.Description, 40))
	}
	if *stats {
		fmt.Printf("\ncorpus=%d candidates=%d terms=%d | extract=%v match=%v tightness=%v\n",
			st.CorpusSize, st.Candidates, st.QueryTerms, st.PhaseExtract, st.PhaseMatch, st.PhaseTightness)
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	data := dataFlag(fs)
	id := fs.String("id", "", "schema ID")
	format := fs.String("format", "summary", "summary, ddl, xsd, graphml or svg")
	layoutKind := fs.String("layout", "tree", "tree or radial (svg only)")
	focus := fs.String("focus", "", "drill-in node, e.g. e:patient (svg only)")
	summarize := fs.Int("summarize", 0, "reduce to the K most important entities first")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	s := sys.Get(*id)
	if s == nil {
		return fmt.Errorf("no schema %q", *id)
	}
	if *summarize > 0 {
		s, err = schemr.Summarize(s, *summarize)
		if err != nil {
			return err
		}
	}
	switch *format {
	case "summary":
		fmt.Printf("%s: %s\n", s.ID, s)
		if s.Description != "" {
			fmt.Printf("  %s\n", s.Description)
		}
		for _, e := range s.Entities {
			cols := make([]string, len(e.Attributes))
			for i, a := range e.Attributes {
				cols[i] = a.Name
			}
			fmt.Printf("  %s(%s)\n", e.Name, strings.Join(cols, ", "))
		}
		for _, fk := range s.ForeignKeys {
			fmt.Printf("  fk: %s(%s) -> %s\n", fk.FromEntity, strings.Join(fk.FromColumns, ","), fk.ToEntity)
		}
	case "ddl":
		fmt.Print(schemr.PrintDDL(s))
	case "xsd":
		fmt.Print(schemr.PrintXSD(s))
	case "graphml", "svg":
		viz, err := schemr.Visualize(s, schemr.VizOptions{Layout: *layoutKind, Focus: *focus})
		if err != nil {
			return err
		}
		if *format == "graphml" {
			fmt.Println(string(viz.GraphML))
		} else {
			fmt.Print(viz.SVG)
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	data := dataFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	for _, id := range sys.Repo.IDs() {
		s := sys.Get(id)
		fmt.Printf("%-10s %s\n", id, s)
	}
	return nil
}

func cmdDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ContinueOnError)
	data := dataFlag(fs)
	id := fs.String("id", "", "schema ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	ok, err := sys.Repo.Delete(*id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no schema %q", *id)
	}
	if err := sys.Save(*data); err != nil {
		return err
	}
	fmt.Printf("deleted %s\n", *id)
	return nil
}

func cmdComment(args []string) error {
	fs := flag.NewFlagSet("comment", flag.ContinueOnError)
	data := dataFlag(fs)
	id := fs.String("id", "", "schema ID")
	author := fs.String("author", "", "comment author")
	text := fs.String("text", "", "comment text")
	rating := fs.Int("rating", 0, "optional rating 1..5")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	if err := sys.Repo.AddComment(*id, schemr.Comment{Author: *author, Text: *text, Rating: *rating}); err != nil {
		return err
	}
	if err := sys.Save(*data); err != nil {
		return err
	}
	avg, n := sys.Repo.Rating(*id)
	fmt.Printf("comment added; rating now %.1f (%d votes)\n", avg, n)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	data := dataFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	entities, attrs := 0, 0
	byFormat := map[string]int{}
	for _, id := range sys.Repo.IDs() {
		s := sys.Get(id)
		entities += s.NumEntities()
		attrs += s.NumAttributes()
		byFormat[s.Format]++
	}
	fmt.Printf("schemas: %d  entities: %d  attributes: %d\n", sys.Repo.Len(), entities, attrs)
	for f, n := range byFormat {
		if f == "" {
			f = "(unset)"
		}
		fmt.Printf("  %s: %d\n", f, n)
	}
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	data := dataFlag(fs)
	id := fs.String("id", "", "schema ID to explain")
	q := fs.String("q", "", "keyword terms")
	ddlFile := fs.String("ddl", "", "DDL fragment file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	in := schemr.QueryInput{Keywords: *q}
	if *ddlFile != "" {
		src, err := os.ReadFile(*ddlFile)
		if err != nil {
			return err
		}
		in.DDL = string(src)
	}
	query, err := schemr.ParseQuery(in)
	if err != nil {
		return err
	}
	sys, err := openSystem(*data)
	if err != nil {
		return err
	}
	ex, err := sys.Explain(query, *id)
	if err != nil {
		return err
	}
	fmt.Printf("schema %s for query %v\n\n", *id, query)
	if ex.Coarse == nil {
		fmt.Println("phase 1 (candidate extraction): NO exact-token match — this schema")
		fmt.Println("  would never become a candidate for this query.")
	} else {
		fmt.Printf("phase 1 (candidate extraction): score %.4f, %d/%d terms, coord %.2f\n",
			ex.Coarse.Total, ex.Coarse.TermsHit, ex.Coarse.TermsInNeed, ex.Coarse.Coord)
		for term, v := range ex.Coarse.PerTerm {
			fmt.Printf("  term %-16s %.4f\n", term, v)
		}
	}
	fmt.Println("\nphase 2 (schema matching): strongest correspondences")
	for _, p := range ex.TopPairs {
		fmt.Printf("  %-28s ↔ %-24s %.3f\n", p.Query, p.Schema.Ref, p.Score)
	}
	fmt.Printf("\nphase 3 (tightness-of-fit): t=%.3f at anchor %q\n", ex.Tightness.Score, ex.Tightness.Anchor)
	for anchor, v := range ex.Tightness.AnchorScores {
		fmt.Printf("  anchor %-16s %.3f\n", anchor, v)
	}
	for _, el := range ex.Tightness.Matched {
		fmt.Printf("  matched %-22s score %.2f penalty %.2f\n", el.Ref, el.Score, el.Penalty)
	}
	fmt.Printf("\ncoverage %.2f → final score %.4f\n", ex.Coverage, ex.Final)
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
