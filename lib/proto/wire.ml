module M = Messages

let ipv6_header = 40

(* Simulation-only metadata carried inside the encoding but not charged
   on the wire: the entry's [Sent_at] bytes. *)
let uncharged = { M.run = (fun d _ () () -> d.M.uncharged) }
let sim_metadata_bytes msg = M.view uncharged () () msg

let size_of msg =
  (* The modelled wire size is exactly what the binary codec emits (so
     the overhead experiments charge precisely the bytes a deployment
     would send), plus a 40-byte IPv6 header, minus simulation-only
     metadata.  The codec length comes from field lengths, not from an
     encoding. *)
  ipv6_header + Binary.encoded_size msg - sim_metadata_bytes msg
