(** Modular arithmetic over a fixed modulus, with a reduction strategy
    selected at [create] time.

    secp256k1's field prime [p = 2^256 - 2^32 - 977] gets a
    pseudo-Mersenne folding reduction running over reused scratch
    buffers (no per-op allocation in the inner loop). Any other odd
    modulus (notably the curve order) gets a Montgomery domain:
    products are reduced by absorbing one quotient digit per 31-bit
    half-limb instead of by Barrett's double multiplication, and
    [pow]/[inv] run their whole square-and-multiply chain inside the
    domain (the field prime's [pow]/[inv] too). Even or oversized
    moduli — and every modulus under [~fast:false] — fall back to
    Barrett reduction, the differential tests' reference. A [ctx]
    captures the modulus plus the precomputed constants; create it once
    and reuse it for every operation.

    The fast paths' scratch buffers are domain-local ([Domain.DLS]),
    so a [ctx] is immutable shared data: any number of domains may use
    the same context concurrently, each borrowing its own domain's
    scratch per call.

    All binary operations expect reduced residues (in [0, modulus));
    [reduce] brings arbitrary naturals into range. *)

type ctx

(** [create ?fast m] builds a context for modulus [m >= 2]. When
    [fast] is [true] (the default) the secp256k1 field prime gets its
    folding reduction and other odd moduli a Montgomery domain;
    [~fast:false] forces Barrett everywhere — the reference the
    differential tests compare against. *)
val create : ?fast:bool -> Nat.t -> ctx

val modulus : ctx -> Nat.t

(** Which reduction strategy [create] selected: ["barrett"],
    ["pseudo-mersenne-secp256k1"], or ["montgomery"]. *)
val reduction_name : ctx -> string

(** Reduce an arbitrary natural modulo the modulus. Fast for any
    product of two residues; falls back to long division beyond that. *)
val reduce : ctx -> Nat.t -> Nat.t

val add : ctx -> Nat.t -> Nat.t -> Nat.t
val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val neg : ctx -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t

(** [sqr ctx a] is [mul ctx a a] through a dedicated squaring kernel
    (cross products computed once and doubled). *)
val sqr : ctx -> Nat.t -> Nat.t

val double : ctx -> Nat.t -> Nat.t

(** [pow ctx b e] is [b^e mod m] by square-and-multiply; when the
    context has a Montgomery domain the chain enters the domain once
    and exits once. *)
val pow : ctx -> Nat.t -> Nat.t -> Nat.t

(** Multiplicative inverse by Fermat's little theorem ([a^(m-2)]), so
    the modulus must be prime — both curve moduli are. Montgomery-backed
    when the context has a domain. Raises [Division_by_zero] on zero. *)
val inv : ctx -> Nat.t -> Nat.t

val of_int : ctx -> int -> Nat.t

(** Interpret a big-endian byte string as a residue. *)
val of_bytes_be : ctx -> string -> Nat.t
