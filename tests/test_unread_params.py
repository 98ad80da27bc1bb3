"""No function in noclock takes a parameter it never reads, except where an
interface fixes the signature.

Each function and lambda under src/noclock is parsed with `ast`; a parameter
is read if its name is loaded anywhere in the body, nested scopes included.
A nested function that takes a parameter of the same name, or a comprehension
that binds it, shadows it: only the parts such a scope evaluates outside
itself (defaults, decorators, the first iterable) are searched.  A method's
`self` or `cls` is not counted.  Entries are keyed by module, qualified
function name (`<lambda>` for a lambda) and parameter, with no line numbers.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "noclock")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# The signatures an interface fixes, each unread parameter once per function.
ALLOWED = Counter({
    # DELAYS entries: delay_policy(receiver, rng).
    ("adversary", "<lambda>", "receiver"): 3,
    ("adversary", "_boundary", "receiver"): 1,
    # RATE_SCHEDULES entries: schedule(theta, duration, rng).
    ("adversary", "<lambda>", "theta"): 1,
    ("adversary", "<lambda>", "duration"): 2,
    ("adversary", "<lambda>", "rng"): 2,
    # ORACLES entries: kind(config, seed) -> oracle(label, node).
    ("adversary", "_const_oracle", "seed"): 1,
    ("adversary", "_const_oracle.<lambda>", "label"): 1,
    ("adversary", "_const_oracle.<lambda>", "node"): 1,
    ("adversary", "_mixed_oracle", "config"): 1,
    # BOOTS entries: boot(sim, rng, runtimes).
    ("adversary", "clean_boot", "rng"): 1,
    ("adversary", "clean_boot", "runtimes"): 1,
    # Kernel handler methods the strategies that do not run the honest node
    # stack leave unused.
    ("adversary", "SilentNode.on_threshold", "units"): 1,
    ("adversary", "SilentNode.on_threshold", "tag"): 1,
    ("adversary", "SilentNode.on_deliver", "sender"): 1,
    ("adversary", "SilentNode.on_deliver", "envelope"): 1,
    ("adversary", "SilentNode.on_malformed", "sender"): 1,
    ("adversary", "NoiseNode.on_threshold", "units"): 1,
    ("adversary", "NoiseNode.on_threshold", "tag"): 1,
    ("adversary", "ClockSkewNode.on_threshold", "tag"): 1,
    # What `make_byzantine` passes every strategy constructor.
    ("adversary", "SilentNode.__init__", "proto"): 1,
    ("adversary", "SilentNode.__init__", "oracle"): 1,
    ("adversary", "ClockSkewNode.__init__", "proto"): 1,
    ("adversary", "ClockSkewNode.__init__", "oracle"): 1,
    # Every envelope's `frame_bits(p)`; garbage has a fixed frame.
    ("messages", "Garbage.frame_bits", "p"): 1,
})


def _params(fn) -> list:
    a = fn.args
    names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]


def _shadows(node, name: str) -> bool:
    """Whether `node` opens a scope in which `name` is its own."""
    if isinstance(node, FUNCS):
        return name in _params(node)
    return isinstance(node, COMPS) and any(
        isinstance(t, ast.Name) and t.id == name
        for g in node.generators for t in ast.walk(g.target))


def _outside(node) -> list:
    """The parts of a scope-opening `node` evaluated in the enclosing scope."""
    if isinstance(node, COMPS):
        return [node.generators[0].iter]
    a = node.args
    return (a.defaults + [d for d in a.kw_defaults if d is not None]
            + getattr(node, "decorator_list", []))


def _reads(nodes, name: str) -> bool:
    """Whether any of `nodes` loads `name`, outside scopes that shadow it."""
    for node in nodes:
        if _shadows(node, name):
            if _reads(_outside(node), name):
                return True
        elif isinstance(node, ast.Name):
            if node.id == name and isinstance(node.ctx, ast.Load):
                return True
        elif _reads(ast.iter_child_nodes(node), name):
            return True
    return False


def unread_params(module: str, tree) -> list:
    found = []

    def visit(node, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, FUNCS):
                name = prefix + getattr(child, "name", "<lambda>")
                names = _params(child)
                if in_class and names[:1] in (["self"], ["cls"]):
                    names = names[1:]
                body = child.body if isinstance(child.body, list) \
                    else [child.body]
                found.extend((module, name, p) for p in names
                             if not _reads(body, p))
                visit(child, name + ".", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def test_only_interface_parameters_go_unread():
    found = Counter()
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                tree = ast.parse(fh.read())
            found.update(unread_params(fname[:-3], tree))
    assert sorted((found - ALLOWED).elements()) == []
    assert sorted((ALLOWED - found).elements()) == []


def test_the_probe_sees_reads_in_nested_scopes_and_shadowing():
    tree = ast.parse(
        "def outer(a, b, c, d, e, g, h, k):\n"
        "    def inner(b):\n"
        "        return a + b\n"
        "    f = lambda c: c\n"
        "    @g\n"
        "    def deco(d=d, *, e=e, g=0):\n"
        "        return d + e + g\n"
        "    return [h for h in range(3)] + [k for k in k]\n")
    assert unread_params("m", tree) == [
        ("m", "outer", "b"), ("m", "outer", "c"), ("m", "outer", "h")]
