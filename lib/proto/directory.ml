module Address = Manet_ipv6.Address

module Table = Address.Tbl

type t = int list Table.t

let create () = Table.create 64

let register t addr node =
  let existing = Option.value ~default:[] (Table.find_opt t addr) in
  if not (List.mem node existing) then
    Table.replace t addr (List.sort Int.compare (node :: existing))

let unregister t addr node =
  match Table.find_opt t addr with
  | None -> ()
  | Some ids -> (
      match List.filter (fun i -> i <> node) ids with
      | [] -> Table.remove t addr
      | rest -> Table.replace t addr rest)

let lookup_all t addr = Option.value ~default:[] (Table.find_opt t addr)

let lookup t addr =
  match lookup_all t addr with [] -> None | id :: _ -> Some id

let addresses_of t node =
  Table.fold
    (fun addr ids acc -> if List.mem node ids then addr :: acc else acc)
    t []
  |> List.sort Address.compare
