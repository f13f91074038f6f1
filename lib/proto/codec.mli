(** Canonical byte encodings of the tuples the protocol signs.

    Every [\[...\]_SK] in Table 1 is a signature over a tuple; both signer
    and verifier must serialize the tuple identically, and tuples from
    different message kinds must never collide (otherwise a signature
    issued for one context could be replayed in another).  Each payload
    therefore starts with a domain-separation tag, and variable-length
    fields are length-prefixed. *)

module Address = Manet_ipv6.Address

val addr : Address.t -> string
(** 16 bytes, network order. *)

val u32 : int -> string
val u64 : int64 -> string
val route : Address.t list -> string
(** Count-prefixed concatenation of addresses. *)

(* Signing payloads, one per signature kind in the protocol. *)

val arep_payload : sip:Address.t -> ch:int64 -> string
(** AREP: [\[SIP, ch\]_RSK]. *)

val drep_payload : dn:string -> ch:int64 -> string
(** DREP: [\[DN, ch\]_NSK]. *)

val rreq_source_payload : sip:Address.t -> seq:int -> string
(** RREQ: [\[SIP, seq\]_SSK]. *)

val srr_entry_payload : iip:Address.t -> seq:int -> string
(** SRR hop: [\[IIP, seq\]_ISK]. *)

val rrep_payload : sip:Address.t -> seq:int -> rr:Address.t list -> string
(** RREP: [\[SIP, seq, RR\]_DSK]; also the second half of a CREP. *)

val crep_cacher_payload :
  requester:Address.t -> seq:int -> rr:Address.t list -> string
(** CREP first half: [\[S'IP, seq', RR_{S'->S}\]_SSK]. *)

val rerr_payload : reporter:Address.t -> broken_next:Address.t -> string
(** RERR: [\[IIP, I'IP\]_ISK]. *)

val probe_reply_payload :
  responder:Address.t -> origin:Address.t -> seq:int -> string

val name_reply_payload :
  name:string -> result:Address.t option -> ch:int64 -> string
(** Secure DNS lookup response, signed by the DNS server. *)

val ip_change_payload :
  old_ip:Address.t -> new_ip:Address.t -> ch:int64 -> string
(** §3.2 address change: [\[XIP, X'IP, ch\]_XSK]. *)
