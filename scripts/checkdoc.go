//go:build ignore

// Command checkdoc fails when an exported identifier in the given
// packages lacks a doc comment. It is the docs-hygiene gate wired into
// CI (.github/workflows/ci.yml). With no arguments it checks every
// package directory under internal/.
//
// Usage: go run scripts/checkdoc.go [package-dir ...]
//
// Checked: exported types, functions, methods (on exported receivers),
// package-level constants and variables (a doc comment on the grouped
// decl covers its members), and struct fields of exported structs are
// NOT required (field docs are encouraged, not gated). Every package
// must also carry a package comment.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		matches, err := filepath.Glob("internal/*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkdoc: %v\n", err)
			os.Exit(2)
		}
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil && fi.IsDir() {
				dirs = append(dirs, m)
			}
		}
	}
	bad := 0
	for _, dir := range dirs {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "checkdoc: %d exported identifiers missing doc comments\n", bad)
		os.Exit(1)
	}
}

func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkdoc: %s: %v\n", dir, err)
		os.Exit(2)
	}
	bad := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for path, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			bad += checkFile(fset, path, f)
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package comment\n", dir, pkg.Name)
			bad++
		}
	}
	return bad
}

func checkFile(fset *token.FileSet, path string, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: exported %s %s has no doc comment\n", filepath.ToSlash(p.Filename), p.Line, kind, name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue // method on an unexported type
			}
			report(d.Pos(), "function", d.Name.Name)
			bad++
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
						bad++
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped decl ("// Verdicts.")
					// covers every member of the group.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(s.Pos(), d.Tok.String(), name.Name)
							bad++
						}
					}
				}
			}
		}
	}
	return bad
}

func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
