package imagestore

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestCastSliceRejectsBadSections pins castSlice's two checks on the
// untrusted directory: the section length must be an exact multiple of
// the element size, and the section base must be aligned for the
// element. A section that passes both aliases the data in place.
func TestCastSliceRejectsBadSections(t *testing.T) {
	buf := alignedCopy(make([]byte, 64))
	for _, r := range []sectionRange{{Off: 0, Len: 12}, {Off: 8, Len: 4}, {Off: 8, Len: 17}} {
		if s, err := castSlice[uint64](buf, r, "test"); err == nil || !strings.Contains(err.Error(), "not a multiple of 8") {
			t.Errorf("castSlice[uint64] over %+v = %d elements, %v; want a length error", r, len(s), err)
		}
	}
	if s, err := castSlice[mem.Frame](buf, sectionRange{Off: 0, Len: 24}, "frame"); err == nil || !strings.Contains(err.Error(), "not a multiple of 16") {
		t.Errorf("castSlice[mem.Frame] over 24 bytes = %d elements, %v; want a length error", len(s), err)
	}
	for _, off := range []uint64{1, 2, 3, 4, 5, 6, 7} {
		r := sectionRange{Off: off, Len: 16}
		if s, err := castSlice[uint64](buf, r, "test"); err == nil || !strings.Contains(err.Error(), "base misaligned") {
			t.Errorf("castSlice[uint64] over %+v = %d elements, %v; want an alignment error", r, len(s), err)
		}
	}

	want := []uint64{7, 1 << 40, 3}
	raw := bytesOf(want)
	if len(raw) != len(want)*8 {
		t.Fatalf("bytesOf gave %d bytes for %d uint64s", len(raw), len(want))
	}
	copy(buf[16:], raw)
	got, err := castSlice[uint64](buf, sectionRange{Off: 16, Len: uint64(len(raw))}, "test")
	if err != nil || len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("castSlice round trip = %v, %v; want %v", got, err, want)
	}
	got[0] = 9
	if buf[16] != 9 {
		t.Error("castSlice copied the section; it must alias the data in place")
	}
}

// TestParseHeaderRejectsMisalignedBase pins the alignment check before
// the native endianness-tag read: a header whose base is not 4-aligned
// is rejected before the tag is read, while an aligned one gets as far
// as the tag.
func TestParseHeaderRejectsMisalignedBase(t *testing.T) {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	for shift := uint8(0); shift < 8; shift++ {
		_, err := parseHeader(shiftedCopy(hdr, shift))
		misaligned := err != nil && strings.Contains(err.Error(), "misaligned for native tag read")
		if want := shift%4 != 0; misaligned != want {
			t.Errorf("shift %d: parseHeader error %v; want a misalignment error: %v", shift, err, want)
		}
		if shift%4 == 0 && (err == nil || !strings.Contains(err.Error(), "endianness tag")) {
			t.Errorf("shift %d: parseHeader error %v; want the zero endianness tag rejected", shift, err)
		}
	}
}

// TestParseHeaderRejectsBadDirectory pins parseHeader's checks on each
// untrusted directory entry, which castSlice relies on to stay inside
// the data: a section must start 8-aligned, at or after the header, and
// end within the data. Each header has a valid checksum, so only the
// directory check can reject it.
func TestParseHeaderRejectsBadDirectory(t *testing.T) {
	const body = 64
	header := func(off, n uint64) []byte {
		b := alignedCopy(make([]byte, headerSize+body))
		le := binary.LittleEndian
		copy(b, magic)
		le.PutUint32(b[8:12], FormatVersion)
		hostPutUint32(b[12:16], endianTag)
		le.PutUint32(b[24:28], numSections)
		le.PutUint32(b[28:32], layoutHash())
		for i := 0; i < numSections; i++ {
			le.PutUint64(b[32+i*16:], headerSize)
		}
		le.PutUint64(b[32+secFrames*16:], off)
		le.PutUint64(b[32+secFrames*16+8:], n)
		le.PutUint64(b[16:24], uint64(crc32.Checksum(b[24:], crcTable)))
		return b
	}
	dir, err := parseHeader(header(headerSize+16, body-16))
	if err != nil || dir[secFrames] != (sectionRange{Off: headerSize + 16, Len: body - 16}) {
		t.Fatalf("valid directory: parseHeader = %+v, %v", dir[secFrames], err)
	}
	for _, c := range []struct {
		name   string
		off, n uint64
		want   string
	}{
		{"end past the data", headerSize + 16, body - 8, "beyond"},
		{"start past the data", headerSize + body + 8, 0, "beyond"},
		{"length wraps", headerSize + 16, ^uint64(0) - 7, "beyond"},
		{"start inside the header", headerSize - 16, 8, "beyond"},
		{"start misaligned", headerSize + 4, 8, "misaligned at"},
	} {
		if _, err := parseHeader(header(c.off, c.n)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseHeader error %v; want one containing %q", c.name, err, c.want)
		}
	}
}

// TestHostPutUint32Guards pins hostPutUint32's bounds and alignment
// guards: a short slice or a misaligned offset panics instead of
// storing out of bounds or faulting on strict-alignment hosts.
func TestHostPutUint32Guards(t *testing.T) {
	buf := alignedCopy(make([]byte, 16))
	hostPutUint32(buf[4:8], endianTag)
	if got := binary.NativeEndian.Uint32(buf[4:8]); got != endianTag {
		t.Errorf("hostPutUint32 stored %#x, want %#x", got, endianTag)
	}
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"short slice", buf[8:11]},
		{"misaligned offset", buf[1:5]},
		{"misaligned tail", buf[6:]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: hostPutUint32 did not panic", c.name)
				}
			}()
			hostPutUint32(c.b, endianTag)
		}()
	}
}

// unsafeFuncs are the functions of format.go allowed to use package
// unsafe. Every cast the store makes over mapped bytes goes through
// them, and the tests above pin their guards.
var unsafeFuncs = map[string]bool{
	"hostIsLittleEndian": true, "hostPutUint32": true, "layoutHash": true,
	"layoutOK": true, "parseHeader": true, "bytesOf": true, "castSlice": true,
}

// TestUnsafeConfinedToFormat parses every non-test Go file of the
// module and fails if any file other than internal/imagestore/format.go
// imports unsafe, or if format.go uses it outside unsafeFuncs: in
// another function, or at package level. It also fails if any function
// of package imagestore assigns to a package-level variable. Slices
// cast over a mapping are then held only by the image decoded from it,
// and no package state can keep one past the mapping's life.
func TestUnsafeConfinedToFormat(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	const format = "internal/imagestore/format.go"
	fset := token.NewFileSet()
	sawFormat := false
	var pkg []*ast.File // non-test files of package imagestore
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if pathpkg.Dir(rel) == pathpkg.Dir(format) {
			pkg = append(pkg, f)
		}
		name := unsafeImportName(f)
		switch {
		case name == "":
		case rel != format:
			t.Errorf("%s imports unsafe; only %s may", rel, format)
		default:
			sawFormat = true
			for _, pos := range unsafeUsesOutside(f, name, unsafeFuncs) {
				t.Errorf("%s:%d: unsafe used outside the guarded functions of %s", rel, fset.Position(pos).Line, format)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawFormat {
		t.Fatalf("%s does not import unsafe; the walk found nothing to check", format)
	}
	for _, pos := range packageVarAssigns(pkg) {
		t.Errorf("%s: assigns to a package-level variable of package imagestore", fset.Position(pos))
	}
}

// unsafeImportName returns the name f refers to package unsafe by, or
// "" when f does not import it.
func unsafeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "unsafe" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "unsafe"
	}
	return ""
}

// unsafeUsesOutside returns the position of every name.X selector in f
// that lies outside the top-level functions named in allowed.
func unsafeUsesOutside(f *ast.File, name string, allowed map[string]bool) []token.Pos {
	var out []token.Pos
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && allowed[fd.Name.Name] {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
					out = append(out, sel.Pos())
				}
			}
			return true
		})
	}
	return out
}

// packageVarAssigns returns the position of every assignment or
// increment, inside a function of files, whose target is rooted at a
// package-level variable of files (x = v, x.f = v, x[i] = v, *x = v).
// A local that shadows such a variable is reported too; rename it.
func packageVarAssigns(files []*ast.File) []token.Pos {
	vars := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						vars[id.Name] = id.Name != "_"
					}
				}
			}
		}
	}
	root := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				return vars[x.Name]
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	var out []token.Pos
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range s.Lhs {
						if root(lhs) {
							out = append(out, lhs.Pos())
						}
					}
				case *ast.IncDecStmt:
					if root(s.X) {
						out = append(out, s.X.Pos())
					}
				}
				return true
			})
		}
	}
	return out
}
