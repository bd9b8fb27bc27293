type event =
  | Submitted
  | Completed
  | Rejected
  | Shed
  | Failed
  | Retried
  | Demoted

let event_name = function
  | Submitted -> "submitted"
  | Completed -> "completed"
  | Rejected -> "rejected"
  | Shed -> "shed"
  | Failed -> "failed"
  | Retried -> "retried"
  | Demoted -> "demoted"

type counts = {
  submitted : int;
  completed : int;
  rejected : int;
  shed : int;
  failed : int;
  retried : int;
  demoted : int;
}

let zero =
  {
    submitted = 0;
    completed = 0;
    rejected = 0;
    shed = 0;
    failed = 0;
    retried = 0;
    demoted = 0;
  }

let bump c = function
  | Submitted -> { c with submitted = c.submitted + 1 }
  | Completed -> { c with completed = c.completed + 1 }
  | Rejected -> { c with rejected = c.rejected + 1 }
  | Shed -> { c with shed = c.shed + 1 }
  | Failed -> { c with failed = c.failed + 1 }
  | Retried -> { c with retried = c.retried + 1 }
  | Demoted -> { c with demoted = c.demoted + 1 }

let add a b =
  {
    submitted = a.submitted + b.submitted;
    completed = a.completed + b.completed;
    rejected = a.rejected + b.rejected;
    shed = a.shed + b.shed;
    failed = a.failed + b.failed;
    retried = a.retried + b.retried;
    demoted = a.demoted + b.demoted;
  }

type t = (string, counts) Hashtbl.t

let create () : t = Hashtbl.create 8

let note t ~obs ~tenant event =
  let cur = Option.value (Hashtbl.find_opt t tenant) ~default:zero in
  Hashtbl.replace t tenant (bump cur event);
  Vblu_obs.Ctx.incr_l obs
    ("serve." ^ event_name event)
    [ ("tenant", tenant) ]
    1.0

let counts t tenant = Option.value (Hashtbl.find_opt t tenant) ~default:zero

let snapshot t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let totals t = List.fold_left (fun acc (_, c) -> add acc c) zero (snapshot t)
