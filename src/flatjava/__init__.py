"""flatjava: flatten Java class hierarchies and compare quality metrics.

Pipeline: tokenize/parse a Java subset, build a class model with an access
graph, pull inherited members down into each subclass (renaming overridden
ones and rewriting references), emit the flattened classes, and measure
size/cohesion/coupling on either view.
"""

from .advisory import APPLICATIONS, Advisory, advise
from .emitter import emit
from .errors import (
    AmbiguousCall,
    DanglingSuperRef,
    Diagnostic,
    DuplicateClassName,
    DuplicateMember,
    FlatJavaError,
    FlattenError,
    InheritanceCycle,
    LexError,
    ModelError,
    ParseError,
    UnknownSuperclass,
    UnresolvedName,
    UnsupportedFeature,
)
from .flattener import (
    FlattenedClass,
    MemberFate,
    RewriteDirective,
    flatten_class,
    flatten_model,
    rename,
    rewrite_references,
)
from .lexer import Token, token_signature, tokenize
from .metrics import (
    ComparisonRow,
    MetricsRecord,
    compare,
    lcom_values,
    measure_flattened,
    measure_original,
)
from .model import (
    ClassInfo,
    ClassModel,
    MemberInfo,
    OverrideRelation,
    build_model,
    classify_members,
)
from .parser import parse, parse_source
from .resolver import AccessEdge, AccessGraph, compute_access_graph, resolve_class
from .spans import Span

__version__ = "0.1.0"
