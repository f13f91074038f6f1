module M = Messages

let ipv6_header = 40
let addr_size = 16
let seq_size = 4
let challenge_size = 8
let rn_size = 8

let srr_entry_size ~sig_size ~pk_size =
  (* address + two u16 length prefixes + signature + key + modifier *)
  addr_size + 2 + sig_size + 2 + pk_size + rn_size

(* Simulation-only metadata carried inside the encoding but not charged
   on the wire: the [sent_at] float of Data and Ack. *)
let sim_metadata_bytes = function
  | M.Data _ | M.Ack _ -> 8
  | _ -> 0

let size_of msg =
  (* The modelled wire size is exactly what the binary codec emits (so
     the overhead experiments charge precisely the bytes a deployment
     would send), plus a 40-byte IPv6 header, minus simulation-only
     metadata.  The codec length comes from field lengths, not from an
     encoding. *)
  ipv6_header + Binary.encoded_size msg - sim_metadata_bytes msg
