package main

// The loader parses and type-checks every package of the module using
// nothing but the standard library: go/parser for syntax, go/types for
// semantics, and the "source" importer for standard-library
// dependencies. Module-internal imports are resolved against the
// packages we parse ourselves, type-checked in dependency order, so the
// whole module gets full type information without golang.org/x/tools.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// pkgInfo is one parsed and type-checked package.
type pkgInfo struct {
	path  string // import path, e.g. repro/internal/sparse
	dir   string
	name  string // package name from the source
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// moduleRoot walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func moduleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// chainImporter resolves module-internal import paths from the loaded
// set and everything else (the standard library) from the source
// importer.
type chainImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// loadModule parses and type-checks every non-test package under root.
// extra maps additional import paths to directories (used by the tests
// to load deliberately-violating fixtures under a virtual path).
func loadModule(fset *token.FileSet, root, modPath string, extra map[string]string) ([]*pkgInfo, error) {
	dirs := map[string]string{} // import path -> dir
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				ip := modPath
				if rel != "." {
					ip = modPath + "/" + filepath.ToSlash(rel)
				}
				dirs[ip] = p
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip, dir := range extra {
		dirs[ip] = dir
	}

	// Parse every package.
	pkgs := map[string]*pkgInfo{}
	for ip, dir := range dirs {
		pi := &pkgInfo{path: ip, dir: dir}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			// The go tool's own file selection for the host: //go:build
			// lines (platform, release and tool tags) and the _GOOS /
			// _GOARCH filename suffixes, so per-architecture variants
			// such as the blas micro-kernel dispatch files don't collide.
			if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pi.files = append(pi.files, f)
		}
		if len(pi.files) > 0 {
			pi.name = pi.files[0].Name.Name
			pkgs[ip] = pi
		}
	}

	order, err := topoSort(pkgs, modPath)
	if err != nil {
		return nil, err
	}

	imp := &chainImporter{
		local: map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	for _, pi := range order {
		pi.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(pi.path, fset, pi.files, pi.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", pi.path, err)
		}
		pi.pkg = pkg
		imp.local[pi.path] = pkg
	}
	return order, nil
}

// topoSort orders the packages so every module-internal dependency is
// type-checked before its importers.
func topoSort(pkgs map[string]*pkgInfo, modPath string) ([]*pkgInfo, error) {
	paths := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*pkgInfo
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", ip)
		}
		state[ip] = visiting
		pi := pkgs[ip]
		deps := map[string]bool{}
		for _, f := range pi.files {
			for _, spec := range f.Imports {
				dep, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
					deps[dep] = true
				}
			}
		}
		depList := make([]string, 0, len(deps))
		for d := range deps {
			depList = append(depList, d)
		}
		sort.Strings(depList)
		for _, d := range depList {
			if _, ok := pkgs[d]; !ok {
				return fmt.Errorf("%s imports %s, which has no source in the module", ip, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[ip] = done
		order = append(order, pi)
		return nil
	}
	for _, ip := range paths {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}
	return order, nil
}
