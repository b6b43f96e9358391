package cminus

import "strings"

// Resolver hooks: small static queries used by execution engines that
// pre-resolve the AST (the interpreter's compile pass) instead of
// re-inspecting nodes per evaluation.

// IsFloatType reports whether a mini-C base type spelling denotes a
// floating-point type ("double", "float", "const double", ...).
func IsFloatType(typ string) bool {
	return strings.Contains(typ, "double") || strings.Contains(typ, "float")
}

// NumberLoops enumerates every for-statement under blk in source order —
// the same pre-order the parser uses to assign loop labels. Engines
// that pre-resolve a function walk its loops in this fixed order (plans
// themselves are looked up by label).
func NumberLoops(blk *Block) []*ForStmt {
	var out []*ForStmt
	if blk == nil {
		return nil
	}
	WalkStmts(blk, func(s Stmt) bool {
		if loop, ok := s.(*ForStmt); ok {
			out = append(out, loop)
		}
		return true
	})
	return out
}
