package analysis

import "go/types"

// Shared plumbing for the data-protection analyzers (guardedby,
// atomicfield, cowpublish): whole-program unions over per-package facts
// and diagnostic rendering.

// AtomicTargets returns every struct field accessed through a raw
// sync/atomic call anywhere in the program. The atomicfield analyzer
// holds each of these fields to the accessed-atomically-everywhere rule.
func (p *Program) AtomicTargets() map[types.Object]bool {
	if p.atomicTargets == nil {
		p.atomicTargets = map[types.Object]bool{}
		for _, pkg := range p.Packages {
			for obj := range pkg.Facts.AtomicUse {
				p.atomicTargets[obj] = true
			}
		}
	}
	return p.atomicTargets
}

// fieldRef renders a struct field for diagnostics as pkg.field.
func fieldRef(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// typeRef renders a type for diagnostics with package names (not import
// paths) as qualifiers.
func typeRef(t types.Type) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}

// isAtomicNamedType reports whether t is one of the typed sync/atomic
// wrappers (atomic.Int64, atomic.Pointer[T], atomic.Value, ...).
func isAtomicNamedType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// isAtomicPointerType reports whether t is sync/atomic's Pointer[T] or
// Value — the types a //sqlcm:cow field must have so the read side is an
// atomic load by construction.
func isAtomicPointerType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return false
	}
	return named.Obj().Name() == "Pointer" || named.Obj().Name() == "Value"
}

// containsAtomicState reports whether a value of type t embeds atomic
// state — a raw atomic-target field or a typed sync/atomic wrapper —
// anywhere in its (non-pointer) field graph. Copying such a value
// duplicates the atomic state plainly.
func containsAtomicState(t types.Type, targets map[types.Object]bool, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isAtomicNamedType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if targets[f] || containsAtomicState(f.Type(), targets, seen) {
				return true
			}
		}
	case *types.Array:
		return containsAtomicState(u.Elem(), targets, seen)
	}
	return false
}
