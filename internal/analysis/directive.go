package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding is suppressed by a comment of the form
//
//	//paylint:<verb> <argument...>
//
// written either on the same line as the flagged construct or on the
// line immediately above it. The verbs are:
//
//	//paylint:sorted <reason>  — on a map range statement: iteration
//	  order is immaterial here; <reason> must say why (for example
//	  "max over keys is order-independent").
//	//paylint:aliases <field>  — on an exported function or method
//	  declaration: the return value deliberately aliases the named
//	  receiver scratch field; callers must copy before the next call.
//	//paylint:poolpair <reason>  — on a pooled-value acquire site: the
//	  value's release is deliberately unbalanced here.
//	//paylint:lockorder <reason>  — on a Lock call: the flagged rank or
//	  balance deviation is deliberate.
//	//paylint:atomic <reason>  — on a field access: the mixed
//	  atomic/non-atomic access is safe (say why — e.g. guarded by a
//	  happens-before the analyzer cannot see).
//
// The argument is mandatory: a directive is an auditable exception, and
// an exception without a recorded justification is itself a finding (see
// the directive analyzer). A directive that no longer suppresses any
// finding is reported as stale by the same analyzer, so justifications
// cannot outlive the code they excuse.

// directivePrefix introduces every paylint directive comment.
const directivePrefix = "//paylint:"

// A directiveComment is one parsed //paylint: comment.
type directiveComment struct {
	Verb string // "sorted", "aliases", ...
	Args string // everything after the verb, trimmed
	Pos  token.Pos
	Line int // line the comment appears on
}

// directiveIndex maps source lines to the directives written on them,
// for every file of a pass.
type directiveIndex struct {
	byLine map[int][]directiveComment
	all    []directiveComment
}

// parseDirective parses one comment, returning ok=false if it is not a
// paylint directive at all.
func parseDirective(c *ast.Comment, fset *token.FileSet) (directiveComment, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directiveComment{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	return directiveComment{
		Verb: strings.TrimSpace(verb),
		Args: strings.TrimSpace(args),
		Pos:  c.Pos(),
		Line: fset.Position(c.Pos()).Line,
	}, true
}

// directives builds (once) and returns the pass's directive index.
func (p *Pass) directiveIdx() *directiveIndex {
	if p.directives != nil {
		return p.directives
	}
	idx := &directiveIndex{byLine: map[int][]directiveComment{}}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c, p.Fset)
				if !ok {
					continue
				}
				idx.byLine[d.Line] = append(idx.byLine[d.Line], d)
				idx.all = append(idx.all, d)
			}
		}
	}
	p.directives = idx
	return idx
}

// DirectiveFor returns the directive with the given verb attached to the
// node: written on the node's starting line or the line immediately
// above. The second result reports whether one was found, regardless of
// whether it carries an argument — callers must treat an argument-less
// directive as non-suppressing (the directive analyzer reports it as
// malformed).
func (p *Pass) DirectiveFor(node ast.Node, verb string) (directiveComment, bool) {
	idx := p.directiveIdx()
	line := p.Fset.Position(node.Pos()).Line
	for _, cand := range [2]int{line, line - 1} {
		for _, d := range idx.byLine[cand] {
			if d.Verb == verb {
				return d, true
			}
		}
	}
	return directiveComment{}, false
}

// Suppressed reports whether node carries a well-formed directive with
// the given verb, i.e. one that also has a non-empty argument. A
// suppressing directive is recorded as used for stale-directive
// detection; analyzers must therefore consult Suppressed only when a
// finding would actually be reported.
func (p *Pass) Suppressed(node ast.Node, verb string) bool {
	d, ok := p.DirectiveFor(node, verb)
	if ok && d.Args != "" {
		p.markDirectiveUsed(d)
		return true
	}
	return false
}

// markDirectiveUsed records that d suppressed a finding this run.
// Analyzers that consult DirectiveFor directly (scratchalias matches the
// directive's argument against a field name) call this themselves.
func (p *Pass) markDirectiveUsed(d directiveComment) {
	if p.usage != nil {
		p.usage.used[d.Pos] = true
	}
}
