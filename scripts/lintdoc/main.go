// Command lintdoc enforces the repository's documentation contract:
//
//   - every exported identifier in the audited packages must carry a doc
//     comment, and
//   - every dta_* metric series registered in the sources must have a row
//     in the docs/OPERATIONS.md metrics reference, and every row there
//     must name a series that still exists (no waivers in either
//     direction).
//
// CI runs it on every push; a violation is a build failure, not a review
// nit.
//
// Usage:
//
//	go run ./scripts/lintdoc [-metrics-doc docs/OPERATIONS.md] [packages...]
//
// With no arguments it audits defaultPackages: internal/core,
// internal/whatif, internal/service, internal/obs, internal/fault,
// internal/derive, internal/journal, internal/optimizer, internal/catalog,
// internal/stats, internal/testsrv, internal/workload, internal/drift and
// internal/canonjson.
// Test files are skipped. The metrics cross-check always scans all of internal/ and cmd/;
// -metrics-doc "" disables it (for trimmed checkouts without docs/).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultPackages are the directories audited when none are given.
var defaultPackages = []string{
	"internal/core",
	"internal/whatif",
	"internal/service",
	"internal/obs",
	"internal/fault",
	"internal/derive",
	"internal/journal",
	"internal/optimizer",
	"internal/catalog",
	"internal/stats",
	"internal/testsrv",
	"internal/workload",
	"internal/drift",
	"internal/canonjson",
}

func main() {
	metricsDoc := flag.String("metrics-doc", "docs/OPERATIONS.md", "metrics reference to cross-check registered dta_* series against (\"\" disables)")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultPackages
	}
	var problems []string
	for _, dir := range dirs {
		p, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintdoc:", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	sort.Strings(problems)
	if *metricsDoc != "" {
		drift, err := metricsDrift([]string{"internal", "cmd"}, *metricsDoc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintdoc:", err)
			os.Exit(2)
		}
		problems = append(problems, drift...)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "lintdoc: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// lintDir parses one package directory (tests excluded) and returns one
// problem line per exported identifier that lacks a doc comment.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					name := d.Name.Name
					if d.Recv != nil && len(d.Recv.List) > 0 {
						if rn, ok := receiverType(d.Recv.List[0].Type); ok {
							if !ast.IsExported(rn) {
								continue // method on an unexported type
							}
							name = rn + "." + name
						}
					}
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, name)
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return problems, nil
}

// lintGenDecl checks type, const, and var declarations. A group-level doc
// comment covers every spec in the group (the idiom for const blocks); an
// undocumented exported spec in an undocumented group is reported.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	kind := map[token.Token]string{token.TYPE: "type", token.CONST: "const", token.VAR: "var"}[d.Tok]
	if kind == "" {
		return // imports
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), kind, n.Name)
				}
			}
		}
	}
}

// receiverType unwraps a method receiver to its type name.
func receiverType(expr ast.Expr) (string, bool) {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverType(t.X)
	case *ast.IndexListExpr:
		return receiverType(t.X)
	}
	return "", false
}
