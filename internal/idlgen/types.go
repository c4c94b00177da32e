package idlgen

import (
	"fmt"
	"strings"

	"repro/internal/idl"
)

// goName converts an IDL identifier to an exported Go identifier
// (diff_object → DiffObject).
func goName(ident string) string {
	parts := strings.Split(ident, "_")
	var sb strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		sb.WriteString(strings.ToUpper(p[:1]))
		sb.WriteString(p[1:])
	}
	if sb.Len() == 0 {
		return "X"
	}
	return sb.String()
}

// goLocal converts an IDL identifier to an unexported Go identifier,
// escaping Go keywords and every identifier the generated method bodies use
// themselves (receiver, error values, encoder/decoder handles, ...).
func goLocal(ident string) string {
	n := goName(ident)
	lower := strings.ToLower(n[:1]) + n[1:]
	switch lower {
	case "type", "func", "range", "map", "chan", "var", "const", "return",
		"go", "select", "interface", "defer", "package", "import",
		"c", "err", "result", "reply", "enc", "dec", "ierr", "derr",
		"call", "impl", "herr", "comm", "out", "opts":
		return lower + "_"
	}
	return lower
}

// scalarInfo describes how a non-distributed IDL type maps to Go and CDR.
type scalarInfo struct {
	goType string
	write  func(enc, val string) string // statement writing val
	read   func(dec string) string      // expression reading (value, error)
}

func basicScalar(k idl.BasicKind) (scalarInfo, bool) {
	switch k {
	case idl.TShort:
		return scalarInfo{"int16", wr("WriteShort"), rd("ReadShort")}, true
	case idl.TUShort:
		return scalarInfo{"uint16", wr("WriteUShort"), rd("ReadUShort")}, true
	case idl.TLong:
		return scalarInfo{"int32", wr("WriteLong"), rd("ReadLong")}, true
	case idl.TULong:
		return scalarInfo{"uint32", wr("WriteULong"), rd("ReadULong")}, true
	case idl.TLongLong:
		return scalarInfo{"int64", wr("WriteLongLong"), rd("ReadLongLong")}, true
	case idl.TULongLong:
		return scalarInfo{"uint64", wr("WriteULongLong"), rd("ReadULongLong")}, true
	case idl.TFloat:
		return scalarInfo{"float32", wr("WriteFloat"), rd("ReadFloat")}, true
	case idl.TDouble:
		return scalarInfo{"float64", wr("WriteDouble"), rd("ReadDouble")}, true
	case idl.TBoolean:
		return scalarInfo{"bool", wr("WriteBool"), rd("ReadBool")}, true
	case idl.TChar:
		return scalarInfo{"byte", wr("WriteChar"), rd("ReadChar")}, true
	case idl.TOctet:
		return scalarInfo{"byte", wr("WriteOctet"), rd("ReadOctet")}, true
	case idl.TString:
		return scalarInfo{"string", wr("WriteString"), rd("ReadString")}, true
	default:
		return scalarInfo{}, false
	}
}

func wr(method string) func(enc, val string) string {
	return func(enc, val string) string { return fmt.Sprintf("%s.%s(%s)", enc, method, val) }
}

func rd(method string) func(dec string) string {
	return func(dec string) string { return fmt.Sprintf("%s.%s()", dec, method) }
}

// elemInfo describes how a dsequence element type maps to Go.
type elemInfo struct {
	goType   string // element Go type
	codec    string // dseq codec expression
	elemName string // wire element name (must match the codec's Name)
}

// dseqElem maps a (resolved, non-aliased) element type.
func dseqElem(t idl.Type) (elemInfo, error) {
	t = idl.ResolveAlias(t)
	b, ok := t.(idl.Basic)
	if !ok {
		return elemInfo{}, fmt.Errorf("idlgen: dsequence element %s is not a basic type (user-defined elements need a custom dseq.StructCodec)", t.TypeName())
	}
	switch b.Kind {
	case idl.TDouble:
		return elemInfo{"float64", "dseq.Float64", "double"}, nil
	case idl.TFloat:
		return elemInfo{"float32", "dseq.Float32", "float"}, nil
	case idl.TLong:
		return elemInfo{"int32", "dseq.Int32", "long"}, nil
	case idl.TLongLong:
		return elemInfo{"int64", "dseq.Int64", "long long"}, nil
	case idl.TOctet, idl.TChar:
		return elemInfo{"byte", "dseq.Octet", "octet"}, nil
	case idl.TBoolean:
		return elemInfo{"bool", "dseq.Bool", "boolean"}, nil
	case idl.TString:
		return elemInfo{"string", "dseq.String", "string"}, nil
	default:
		return elemInfo{}, fmt.Errorf("idlgen: dsequence element type %s is not supported", t.TypeName())
	}
}

// distSpecExpr renders a dsequence's declared distribution as a dist.Spec
// expression ("nil" for unspecified, which the engine defaults to block).
func distSpecExpr(ds *idl.DSequence) string {
	switch ds.Dist {
	case idl.DistBlock:
		return "dist.Block{}"
	case idl.DistCyclic:
		return fmt.Sprintf("dist.Cyclic{BlockSize: %d}", ds.CyclicBlock)
	case idl.DistProportions:
		parts := make([]string, len(ds.Proportions))
		for i, p := range ds.Proportions {
			parts[i] = fmt.Sprint(p)
		}
		return fmt.Sprintf("dist.Proportions{P: []int{%s}}", strings.Join(parts, ", "))
	default:
		return "nil"
	}
}
