(* Output checks on a final travel database. *)

module Database = Relational.Database
module Table = Relational.Table
module Value = Relational.Value

(* (user, flight, seat) for every booking. *)
let bookings db =
  Table.fold
    (fun row acc ->
      match Relational.Tuple.to_list row with
      | [ Value.Str u; Value.Int f; Value.Int s ] -> (u, f, s) :: acc
      | _ -> failwith "unexpected Bookings row")
    (Database.table db "Bookings") []

(* No seat is held by two bookings and no user holds two seats. *)
let no_double_booking db =
  let seats = Hashtbl.create 256 and users = Hashtbl.create 256 in
  List.for_all
    (fun (u, f, s) ->
      let fresh = not (Hashtbl.mem seats (f, s) || Hashtbl.mem users u) in
      Hashtbl.replace seats (f, s) ();
      Hashtbl.replace users u ();
      fresh)
    (bookings db)

(* Coordinated users and the most that could be coordinated. *)
let coordination geometry db users =
  (Workload.Travel.coordinated_users db users, Workload.Travel.max_coordination geometry users)
