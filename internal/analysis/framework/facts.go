package framework

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is a claim an analyzer attaches to an object or a package so
// that properties proven while analyzing one package flow to the
// packages that import it — the same contract as
// golang.org/x/tools/go/analysis facts. A fact type must be a pointer to
// a struct; AFact is the marker that keeps arbitrary values out of the
// store. Facts live in memory for one run and are copied out on every
// import, so keep them small: a few scalar fields, never syntax or
// types.Object values.
//
// Facts are private to the analyzer that declares them (in
// Analyzer.FactTypes): two analyzers never observe each other's facts,
// so fact vocabularies evolve independently.
type Fact interface {
	AFact()
}

// factTypeName names a fact's concrete type, for store keys.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// factKey locates one fact: the object's package, the owning analyzer,
// the object key within the package ("" for a package-level fact), and
// the fact's concrete type.
type factKey struct {
	pkg, analyzer, object, typ string
}

// FactStore holds every fact of one analysis run, in memory: the facts
// of every package analyzed so far, dependencies included. One object
// carries at most one fact per (analyzer, fact type); a re-export
// overwrites.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]Fact{}}
}

func (s *FactStore) put(pkg, analyzer, object string, f Fact) {
	s.m[factKey{pkg: pkg, analyzer: analyzer, object: object, typ: factTypeName(f)}] = f
}

// get copies the stored fact into f (which must be a pointer of the
// stored concrete type) and reports whether one was present.
func (s *FactStore) get(pkg, analyzer, object string, f Fact) bool {
	got, ok := s.m[factKey{pkg: pkg, analyzer: analyzer, object: object, typ: factTypeName(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// A FactEntry is one store element in exported form, for tests and for
// analysistest's `// want fact:` assertions.
type FactEntry struct {
	Pkg      string // import path of the package owning the object
	Analyzer string
	Object   string // object key; "" for a package-level fact
	Fact     Fact
}

// Entries returns the store's contents in stable order.
func (s *FactStore) Entries() []FactEntry {
	out := make([]FactEntry, 0, len(s.m))
	for k, f := range s.m {
		out = append(out, FactEntry{Pkg: k.pkg, Analyzer: k.analyzer, Object: k.object, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return factTypeName(out[i].Fact) < factTypeName(out[j].Fact)
	})
	return out
}

// objectKey names obj within its package, or reports that the object is
// not keyable. Facts attach only to objects an importer can find again
// by name in its own type-checked copy of the package (a package's test
// unit and the test-free unit its importers see are checked
// separately, so object identity does not carry across):
//
//	"Name"        a package-level func, type, var, or const
//	"Type.Method" a method (value or pointer receiver) of a named type
//
// Locals, struct fields, and interface methods are not keyable; analyses
// needing per-field claims should attach the fact to the enclosing named
// type and reconstruct field detail structurally.
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			named := NamedOf(sig.Recv().Type())
			if named == nil {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

// LookupObjectKey resolves a key produced by objectKey against pkg, or
// nil.
func LookupObjectKey(pkg *types.Package, key string) types.Object {
	typeName, method, isMethod := strings.Cut(key, ".")
	if !isMethod {
		return pkg.Scope().Lookup(key)
	}
	tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	return nil
}

// checkFactType panics unless the analyzer declared fact's type in
// FactTypes. The driver runs only fact-declaring analyzers over
// dependencies, so an analyzer whose facts went undeclared would export
// them fine within one unit yet never deliver them to an importer;
// requiring each type in the declaration keeps it honest.
func (p *Pass) checkFactType(fact Fact) {
	want := factTypeName(fact)
	for _, f := range p.Analyzer.FactTypes {
		if factTypeName(f) == want {
			return
		}
	}
	panic(fmt.Sprintf("analyzer %q used fact type %s without declaring it in FactTypes", p.Analyzer.Name, want))
}

// ExportObjectFact attaches fact to obj for importing packages to see.
// The object must be keyable (see objectKey); it may belong to this
// package or to a dependency — exporting onto a dependency's object is
// how reachability-style analyses extend a property across a package
// boundary (the fact is then visible to packages that import *this*
// package, which is also where the claim was proven).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.checkFactType(fact)
	key, ok := objectKey(obj)
	if !ok {
		panic(fmt.Sprintf("analyzer %q: ExportObjectFact on unkeyable object %v", p.Analyzer.Name, obj))
	}
	p.facts.put(obj.Pkg().Path(), p.Analyzer.Name, key, fact)
}

// ImportObjectFact copies the fact of fact's type attached to obj into
// fact and reports whether one exists. Unkeyable objects have no facts.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	p.checkFactType(fact)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objectKey(obj)
	if !ok {
		return false
	}
	return p.facts.get(obj.Pkg().Path(), p.Analyzer.Name, key, fact)
}

// ExportPackageFact attaches fact to the package being analyzed.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.checkFactType(fact)
	p.facts.put(p.Pkg.Path(), p.Analyzer.Name, "", fact)
}

// ImportPackageFact copies pkg's package-level fact of fact's type into
// fact and reports whether one exists.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	p.checkFactType(fact)
	return p.facts.get(pkg.Path(), p.Analyzer.Name, "", fact)
}
