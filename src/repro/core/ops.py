"""Operation base classes: leaf, split, merge and stream (paper §2–3).

Operations are user-written classes deriving from one of the four bases.
The body is the :meth:`Operation.execute` method.  It may be

- a **plain function** — it runs atomically; :meth:`Operation.post` hands
  tokens to the runtime as they are produced; the virtual CPU time charged
  is :meth:`Operation.cost` of the input token; or
- a **generator** — it may interleave posting, explicit cost charging
  (``yield self.charge_seconds(...)``) and, for merge/stream operations,
  waiting for further group tokens (``tok = yield self.next_token()``,
  which returns ``None`` once every token of the group has been
  delivered — the analog of ``waitForNextToken()`` returning null).

Yielding a :meth:`post` request additionally blocks the operation until
flow control admits the token (the paper's stalled split).  Engines
interpret the request objects; operation code is engine-agnostic and runs
unmodified on the simulated cluster and on the real-thread engine.
"""

from __future__ import annotations

from collections import deque
from typing import Any, ClassVar, Deque, Optional, Tuple, Type

from ..serial.token import Token
from .threads import DpsThread

__all__ = [
    "Operation",
    "LeafOperation",
    "SplitOperation",
    "MergeOperation",
    "StreamOperation",
    "PostRequest",
    "NextTokenRequest",
    "ChargeRequest",
    "SleepRequest",
    "CallGraphRequest",
    "ScatterCallRequest",
    "OpKind",
]


class OpKind:
    LEAF = "leaf"
    SPLIT = "split"
    MERGE = "merge"
    STREAM = "stream"


# ---------------------------------------------------------------------------
# effect requests — interpreted by the engines
# ---------------------------------------------------------------------------

class _Request:
    __slots__ = ()


class PostRequest(_Request):
    """Emit *token* downstream. Yield it to respect flow control."""

    __slots__ = ("token", "_admit_event")

    def __init__(self, token: Token):
        if not isinstance(token, Token):
            raise TypeError(f"post() takes a Token, got {type(token).__name__}")
        self.token = token
        #: The scheduler's admit gate while the token is queued behind
        #: flow control (yielding the request waits at it), else ``None``.
        self._admit_event = None


class NextTokenRequest(_Request):
    """Wait for the next token of the current merge/stream group."""

    __slots__ = ()


class ChargeRequest(_Request):
    """Consume virtual CPU time (seconds or flops at the node's rate)."""

    __slots__ = ("seconds", "flops")

    def __init__(self, seconds: float = 0.0, flops: float = 0.0):
        if seconds < 0 or flops < 0:
            raise ValueError("charge must be >= 0")
        self.seconds = seconds
        self.flops = flops


class SleepRequest(_Request):
    """Suspend the body for *seconds* of engine time.

    On the simulated engine this advances virtual time without occupying
    the node's CPU resource (the thread is idle, not computing); on the
    real-execution engines it is a timer on the engine's I/O loop.
    Unbounded :class:`~repro.core.streams.StreamSource` bodies use it to
    pace their arrival process identically under both clocks.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError("sleep seconds must be >= 0")
        self.seconds = seconds


class CallGraphRequest(_Request):
    """Call a named flow graph (possibly of another application).

    The operation suspends until the called graph's output token returns;
    the call is what makes a whole parallel service look like a single
    leaf operation to the caller (paper §5, Figure 10).
    """

    __slots__ = ("graph_name", "token")

    def __init__(self, graph_name: str, token: Token):
        if not isinstance(token, Token):
            raise TypeError("call_graph() takes a Token input")
        self.graph_name = graph_name
        self.token = token


class ScatterCallRequest(_Request):
    """Call a remote *scatter graph*; its outputs become this split's.

    The paper's future-work inter-application split (§6): the server
    application, which knows the data distribution, performs the split;
    the client processes the scattered items in parallel and merges them
    itself.  Only valid inside split/stream bodies — the remote tokens
    are posted as the caller's own group.
    """

    __slots__ = ("graph_name", "token")

    def __init__(self, graph_name: str, token: Token):
        if not isinstance(token, Token):
            raise TypeError("call_scatter() takes a Token input")
        self.graph_name = graph_name
        self.token = token


# ---------------------------------------------------------------------------
# operation bases
# ---------------------------------------------------------------------------

class Operation:
    """Common machinery for the four operation kinds.

    Class attributes declare the graph-checkable signature (the analog of
    the C++ template parameters ``<Thread, TV(in...), TV(out...)>``):

    - ``in_types``  — token classes this operation accepts,
    - ``out_types`` — token classes it may post,
    - ``thread_type`` — required :class:`DpsThread` subclass (optional).
    """

    kind: ClassVar[str] = ""
    in_types: ClassVar[Tuple[Type[Token], ...]] = ()
    out_types: ClassVar[Tuple[Type[Token], ...]] = ()
    thread_type: ClassVar[Type[DpsThread]] = DpsThread

    def __init__(self) -> None:
        # Bound by the engine before execute() runs.
        self._thread: Optional[DpsThread] = None
        self._emit: Any = None  # engine callback for bare post()
        self._now: Any = None  # engine clock callback

    # -- runtime binding ---------------------------------------------------
    def bind(self, thread: DpsThread, emit, now=None) -> "Operation":
        self._thread = thread
        self._emit = emit
        self._now = now
        return self

    def now(self) -> float:
        """Current time: virtual seconds on the simulated engine, wall
        seconds on the real-thread engine."""
        if self._now is None:
            return 0.0
        return self._now()

    @property
    def thread(self) -> DpsThread:
        """The DPS thread instance executing this operation (local state)."""
        if self._thread is None:
            raise RuntimeError(
                f"{type(self).__name__} used outside a running schedule"
            )
        return self._thread

    # -- effects -----------------------------------------------------------
    def post(self, token: Token) -> PostRequest:
        """Send *token* downstream.

        Called bare, the token is handed to the runtime immediately (the
        engine transmits it subject to flow control).  Yielded from a
        generator body, the operation additionally stalls until flow
        control admits the token.
        """
        req = PostRequest(token)
        if self._emit is not None:
            self._emit(req)
        return req

    def next_token(self) -> NextTokenRequest:
        """Request the next token of the current group (merge/stream)."""
        if self.kind not in (OpKind.MERGE, OpKind.STREAM):
            raise TypeError(f"next_token() is only valid in merge/stream "
                            f"operations, not {self.kind}")
        return NextTokenRequest()

    def charge_seconds(self, seconds: float) -> ChargeRequest:
        """Charge *seconds* of virtual CPU time (yield from a generator)."""
        return ChargeRequest(seconds=seconds)

    def sleep(self, seconds: float) -> SleepRequest:
        """Idle for *seconds* without computing (yield from a generator).

        Virtual seconds on the simulated engine, wall seconds on the
        real-execution engines — unlike :meth:`charge_seconds`, the
        node's CPU stays free for other thread instances.
        """
        return SleepRequest(seconds)

    def charge_flops(self, flops: float) -> ChargeRequest:
        """Charge flops at the executing node's effective rate."""
        return ChargeRequest(flops=flops)

    def call_graph(self, graph_name: str, token: Token) -> CallGraphRequest:
        """Call a named (possibly remote) flow graph; yields the result."""
        return CallGraphRequest(graph_name, token)

    def call_scatter(self, graph_name: str, token: Token) -> ScatterCallRequest:
        """Call a remote scatter graph from a split/stream body.

        The remote graph's depth-1 output tokens are posted as *this*
        operation's outputs; yielding the request suspends until the
        remote group is fully delivered and returns the token count.
        """
        if self.kind not in (OpKind.SPLIT, OpKind.STREAM):
            raise TypeError(
                f"call_scatter() is only valid in split/stream operations, "
                f"not {self.kind}"
            )
        return ScatterCallRequest(graph_name, token)

    # -- user surface --------------------------------------------------------
    def cost(self, token: Token) -> ChargeRequest:
        """Default virtual cost of processing *token* for plain bodies.

        Override to return ``self.charge_seconds(...)`` or
        ``self.charge_flops(...)``.  Generator bodies normally charge
        explicitly instead.
        """
        return ChargeRequest()

    def execute(self, token: Token):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- class-level validation ----------------------------------------------
    @classmethod
    def check_signature(cls) -> None:
        """Validate the declared signature; used at graph build time."""
        for attr in ("in_types", "out_types"):
            types = getattr(cls, attr)
            if not isinstance(types, tuple) or not all(
                isinstance(t, type) and issubclass(t, Token) for t in types
            ):
                raise TypeError(
                    f"{cls.__name__}.{attr} must be a tuple of Token classes"
                )
        if not cls.in_types:
            raise TypeError(f"{cls.__name__} declares no in_types")
        if not cls.out_types:
            raise TypeError(f"{cls.__name__} declares no out_types")

    @classmethod
    def accepts(cls, token_type: Type[Token]) -> bool:
        # issubclass takes the tuple directly — no generator per check.
        return issubclass(token_type, cls.in_types)


class LeafOperation(Operation):
    """One token in, exactly one token out (paper's ComputeData)."""

    kind = OpKind.LEAF


class SplitOperation(Operation):
    """One token in, one or more tokens out (task distribution)."""

    kind = OpKind.SPLIT


class MergeOperation(Operation):
    """Consumes a whole group, posts a single result.

    The body receives the group's first token; further tokens are pulled
    with ``tok = yield self.next_token()`` until it returns ``None``.
    """

    kind = OpKind.MERGE


class StreamOperation(Operation):
    """A first-class stream stage: 0..N outputs per input, at any time.

    Consumes an input group like a merge while opening an output group
    like a split, enabling pipelining between successive parallel phases
    (paper §3, "Stream operations"; the LU factorization of §5).  The
    body is the same generator contract merges use — ``tok = yield
    self.next_token()`` to pull input, ``yield self.post(...)`` to
    produce output — and a stage that charges cost mid-body or posts
    without blocking (``apps/lu.py``) overrides :meth:`execute` with
    exactly that.  For the common stage that only maps input tokens to
    0..N outputs, the base :meth:`execute` is that generator written
    once, driving three callbacks (DESIGN §5i):

    - implement :meth:`on_token`, called once per input token in arrival
      order; call :meth:`emit` zero or more times per input to produce
      outputs (each emission traverses the stage's credit window);
    - optionally implement :meth:`on_close`, called after the input
      group drains — emissions there flush trailing state (e.g. a
      partial window);
    - call :meth:`end_of_stream` to stop processing further input;
      remaining group tokens are still consumed (the group contract
      requires it) but no longer reach :meth:`on_token`.

    The base :meth:`execute` yields every emitted post, so such stages
    respect per-edge credits exactly like splits.
    """

    kind = OpKind.STREAM
    #: Marks stream stages (and :class:`~repro.core.streams.StreamSource`
    #: splits) as streaming openers for :class:`StreamPolicy` resolution.
    streaming: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        self._emit_buffer: Deque[Token] = deque()
        self._input_closed = False
        #: Input tokens consumed after :meth:`end_of_stream` (visible to
        #: subclasses that want to account for skipped work).
        self.input_discarded = 0

    # -- callback sugar over the generator contract --------------------------
    def emit(self, token: Token) -> None:
        """Queue *token* for posting downstream.

        Valid inside :meth:`on_token` and :meth:`on_close`; each queued
        token is posted through the stage's credit window before the
        next input token is consumed, so emission respects flow control.
        """
        if not isinstance(token, Token):
            raise TypeError(
                f"emit() takes a Token, got {type(token).__name__}")
        self._emit_buffer.append(token)

    def end_of_stream(self) -> None:
        """Declare that no further input should reach :meth:`on_token`.

        The stage keeps consuming (and acknowledging) the rest of its
        input group — the group contract requires every token to be
        consumed — but stops processing it.  :meth:`on_close` still runs.
        """
        self._input_closed = True

    def on_token(self, token: Token) -> None:
        """Process one input token; call :meth:`emit` 0..N times."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement on_token() (or a "
            f"generator execute())")

    def on_close(self) -> None:
        """Input group fully consumed; emit any trailing output here."""

    def execute(self, token: Token):
        tok: Optional[Token] = token
        while tok is not None:
            if self._input_closed:
                self.input_discarded += 1
            else:
                self.on_token(tok)
                while self._emit_buffer:
                    yield self.post(self._emit_buffer.popleft())
            tok = yield self.next_token()
        self.on_close()
        while self._emit_buffer:
            yield self.post(self._emit_buffer.popleft())
